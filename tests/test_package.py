"""What ``import qig`` loads and exports.

The library loads eagerly; the harness, channels and hashlib on first use,
so that a ``qig compute`` process never compiles or runs them.  Every name
``qig`` exports, eager or not, is its submodule's object.
"""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import qig
from qig import cli

#: modules that the library and ``qig compute`` never use: numpy loads
#: numpy.random lazily (~13 ms and ~6 MB per process), qig the harness,
#: channels and the report digests' hashlib
UNUSED_BY_THE_LIBRARY = ("numpy.random", "qig.verify", "qig.channels", "hashlib")

#: every name that ``qig`` has exported since it was split into these modules
EXPORTS = {
    "errors": ("DomainError", "FileFormatError", "InvariantViolation", "VerificationError"),
    "functions": ("DiscreteMeasure", "ScalarFunctionSpec", "covariance_kernel", "extremal_kernel",
                  "extremal_metric", "hansen_mixture", "harmonic", "kubo_mori", "neglog_kernel",
                  "power_kernel", "probe_grid", "sld", "wyd"),
    "linalg": ("SpectralDecomposition", "State", "apply_matrix_function", "as_density",
               "as_hermitian", "commutator", "eig_hermitian", "relmod_apply", "relmod_dense",
               "state"),
    "channels": ("KrausChannel", "apply_dual", "apply_state", "concavity_margin",
                 "monotonicity_margin", "random_channel"),
    "quantities": ("fisher", "gen_cov", "quasi_entropy", "renyi", "skew_identity_residual",
                   "skew_info", "sym_cov", "umegaki", "wyd_direct"),
    "verify": ("SUITE_NAMES", "StepSchedule", "TrialReport", "center_observable", "cov_gram",
               "hessian_vs_skew", "mixed_second_derivative", "random_density", "run_suite",
               "skew_gram"),
}


def _fresh_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, check=True)


def test_importing_qig_and_its_cli_loads_only_the_library():
    code = f"import sys, qig, qig.cli; print([m for m in {UNUSED_BY_THE_LIBRARY!r} if m in sys.modules])"
    assert _fresh_python("-c", code).stdout.strip() == "[]"


def test_qig_compute_process_loads_only_the_library(tmp_path):
    cli.write_matrix(tmp_path / "d1.json", np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]]))
    cli.write_matrix(tmp_path / "d2.json", np.array([[0.4, -0.05j], [0.05j, 0.6]]))
    argv = ("compute", "umegaki", "--state", "d1.json", "--state2", "d2.json")
    out = _fresh_python("-X", "importtime", "-m", "qig.cli", *argv, cwd=tmp_path)
    assert out.stdout == "0.340453633966\n"
    # -X importtime writes one "import time: self | cumulative | name" line per module loaded
    loaded = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if "|" in line}
    assert "qig.quantities" in loaded
    assert loaded.isdisjoint(UNUSED_BY_THE_LIBRARY), sorted(loaded.intersection(UNUSED_BY_THE_LIBRARY))


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in (m, *names)])
def test_every_exported_name_is_its_submodules_object(module, name):
    sub = importlib.import_module(f"qig.{module}")
    expected = sub if name == module else getattr(sub, name)
    assert getattr(qig, name) is expected
    scope: dict = {}
    exec(f"from qig import {name}", scope)
    assert scope[name] is expected


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(qig, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from qig import no_such_name", {})


def test_the_lazy_names_resolve_in_a_fresh_process():
    code = (
        "import sys, qig\n"
        "assert 'qig.verify' not in sys.modules and 'qig.channels' not in sys.modules\n"
        "from qig import run_suite, KrausChannel\n"
        "print(run_suite is qig.verify.run_suite, KrausChannel is qig.channels.KrausChannel)\n"
    )
    assert _fresh_python("-c", code).stdout.split() == ["True", "True"]

"""``scripts/layer_times.py`` runs: each time row of its ``memo`` section, ``sym_cov_s`` and ``wyd_direct_s`` print one positive time, and its grid ratio a positive ratio."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "layer_times.py"
TIME_ROWS = ("state_once_seen_s", "state_cycle8_s", "umegaki_remembered_pair_s", "fisher_after_gen_cov_s",
             "renyi_after_umegaki_s", "sym_cov_s", "wyd_direct_s")
RATIO_ROWS = ("fisher_grid_remembered_over_cold",)


def test_each_time_row_prints_one_positive_time_at_n_4():
    # one process per row, run side by side: the script pins BLAS to one thread when it is imported,
    # which in this process would let linalg._both start its product threads in the tests after it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    runs = {
        row: subprocess.Popen([sys.executable, str(SCRIPT), "--row", row, "--dim", "4"], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for row in TIME_ROWS + RATIO_ROWS
    }
    for row, run in runs.items():
        out, err = run.communicate(timeout=60)
        assert run.returncode == 0, (row, err)
        (line,) = out.splitlines()
        value = json.loads(line)
        assert type(value) is float and value > 0, (row, out)

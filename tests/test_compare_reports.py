import importlib.util
import json
from pathlib import Path

import pytest

from qig import cli, verify

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _report(seed: int, elapsed_shift: float = 0.0) -> dict:
    suites = []
    for name in ("wyd-consistency", "renyi-limit"):
        d = verify.run_suite(name, trials=3, seed=seed, dims=(2, 3)).to_dict()
        d["elapsed"] += elapsed_shift
        suites.append(d)
    return {"seed": 5, "suites": suites}


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return str(path)


def test_reports_differing_only_in_elapsed_match(tmp_path, capsys):
    a = _write(tmp_path / "a.json", _report(1))
    b = _write(tmp_path / "b.json", _report(1, elapsed_shift=3.0))
    assert compare_reports.main([a, b]) == 0
    assert "match" in capsys.readouterr().out


def test_differing_suites_are_named(tmp_path, capsys):
    first, second = _report(1), _report(1)
    second["suites"][1]["max_residual"] *= 1.0 + 1e-15
    a = _write(tmp_path / "a.json", first)
    b = _write(tmp_path / "b.json", second)
    assert compare_reports.main([a, b]) == 1
    assert capsys.readouterr().out.strip() == "differ: renyi-limit"


_DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "golden, seed, trials",
    [
        ("quick_seed17.json", "17", ["--trials", "10"]),
        ("acceptance_seed17.json", "17", []),
        ("quick_seed3.json", "3", ["--trials", "10"]),
    ],
    ids=["quick", "acceptance", "quick-seed3"],
)
def test_quick_verification_report_matches_the_golden_file(tmp_path, golden, seed, trials):
    # The golden files hold the last bits of every margin and residual, so they are
    # pinned to the numpy / OpenBLAS build they were written with (numpy 2.4,
    # OpenBLAS 0.3.31, x86-64); regenerate one from the "seed" and "suites" keys of
    #   qig verify all --trials 10 --seed 17 --report quick.json
    # (the file's own seed; no --trials for the acceptance-scale file) on a commit
    # whose reports are known good before comparing another build.
    full = tmp_path / "full.json"
    assert cli.main(["verify", "all", *trials, "--seed", seed, "--report", str(full)]) == 0
    payload = json.loads(full.read_text())
    quick = _write(tmp_path / "quick.json", {key: payload[key] for key in ("seed", "suites")})
    assert compare_reports.main([str(_DATA / golden), quick]) == 0

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from qig import cli, verify
from qig.errors import DomainError, VerificationError
from qig.verify import SUITE_NAMES

DATA = Path(__file__).parent / "data"


@pytest.fixture
def matrix_files(tmp_path):
    d1 = tmp_path / "d1.json"
    d2 = tmp_path / "d2.json"
    x = tmp_path / "x.json"
    cli.write_matrix(d1, np.diag([0.5, 0.5]).astype(complex))
    cli.write_matrix(d2, np.diag([0.75, 0.25]).astype(complex))
    cli.write_matrix(x, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    return {"d1": str(d1), "d2": str(d2), "x": str(x)}


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "m.json"
    cli.write_matrix(path, M)
    back = cli.read_matrix(str(path))
    assert np.array_equal(M, back)


def test_compute_umegaki_golden(matrix_files, capsys):
    rc = cli.main(["compute", "umegaki", "--state", matrix_files["d1"], "--state2", matrix_files["d2"]])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.143841036226"


def test_compute_skew_golden(matrix_files, capsys):
    rc = cli.main(
        ["compute", "skew", "--fn", "sld", "--state", matrix_files["d2"], "--obs", matrix_files["x"]]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.25"


def test_compute_decomposes_each_state_file_once(matrix_files, eig_calls, capsys):
    rc = cli.main(
        ["compute", "skew", "--fn", "sld", "--state", matrix_files["d2"], "--obs", matrix_files["x"]]
    )
    assert rc == 0 and capsys.readouterr().out.strip() == "0.25"
    assert eig_calls == {"eigh": 1, "eigvalsh": 0}


def test_compute_gen_cov_and_fisher(matrix_files, capsys):
    rc = cli.main(
        ["compute", "gen-cov", "--fn", "harmonic", "--state", matrix_files["d2"], "--obs", matrix_files["x"]]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.75"
    rc = cli.main(
        ["compute", "cov", "--state", matrix_files["d2"], "--obs", matrix_files["x"]]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize(
    "args, printed",
    [
        (["fisher", "--fn", "sld"], "4"),
        (["wyd", "--p", "0.5"], "0.133974596216"),  # 1 - sqrt(3)/2
    ],
)
def test_compute_fisher_and_wyd_on_the_flip(matrix_files, args, printed, capsys):
    rc = cli.main(["compute", *args, "--state", matrix_files["d2"], "--obs", matrix_files["x"]])
    assert rc == 0
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize("quantity, printed", [("gen-cov", "0+0.5j"), ("fisher", "0+2j")])
def test_compute_second_observable_prints_a_complex_value(tmp_path, matrix_files, quantity, printed, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    cli.write_matrix(a, np.array([[1, 1], [0, 0]], dtype=complex))
    cli.write_matrix(b, np.array([[0, 1j], [0, 0]], dtype=complex))
    rc = cli.main(
        ["compute", quantity, "--fn", "sld", "--state", matrix_files["d2"], "--obs", a, "--obs2", b]
    )
    assert rc == 0
    assert capsys.readouterr().out == printed + "\n"


def test_compute_quasi_entropy_defaults_to_identity_operand(matrix_files, capsys):
    rc = cli.main(
        [
            "compute",
            "quasi-entropy",
            "--kernel",
            "neglog",
            "--state",
            matrix_files["d1"],
            "--state2",
            matrix_files["d2"],
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.143841036226"


def test_compute_renyi_zero_alpha_is_domain_error(matrix_files, capsys):
    rc = cli.main(
        ["compute", "renyi", "--alpha", "0", "--state", matrix_files["d1"], "--state2", matrix_files["d2"]]
    )
    assert rc == 4
    assert "alpha must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_compute_power_kernel_with_a_non_finite_exponent_exit_4(matrix_files, alpha, capsys):
    # the maximally mixed pair once printed 1 for these exponents
    rc = cli.main(
        ["compute", "quasi-entropy", "--kernel", f"power:{alpha}",
         "--state", matrix_files["d1"], "--state2", matrix_files["d1"]]
    )
    assert rc == 4
    assert "power kernel needs a positive finite exponent" in capsys.readouterr().err


def test_compute_malformed_file_exit_2(tmp_path, matrix_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["compute", "umegaki", "--state", str(bad), "--state2", matrix_files["d2"]])
    assert rc == 2
    assert str(bad) in capsys.readouterr().err


def test_compute_schema_violations_exit_2(tmp_path, matrix_files):
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"n": 2, "data": [[[1, 0]], [[0, 0], [1, 0]]]}')
    assert cli.main(["compute", "umegaki", "--state", str(wrong), "--state2", matrix_files["d2"]]) == 2
    boolean = tmp_path / "bool.json"
    boolean.write_text('{"n": true, "data": [[[1, 0]]]}')
    assert cli.main(["compute", "umegaki", "--state", str(boolean), "--state2", str(boolean)]) == 2
    for entry in ('["0.75", "0"]', "[true, false]"):
        not_numbers = tmp_path / "not_numbers.json"
        not_numbers.write_text(f'{{"n": 2, "data": [[{entry}, [0, 0]], [[0, 0], [0.25, 0]]]}}')
        args = ["compute", "umegaki", "--state", str(not_numbers), "--state2", matrix_files["d2"]]
        assert cli.main(args) == 2


def test_compute_non_density_exit_3(tmp_path, matrix_files, capsys):
    nondens = tmp_path / "nd.json"
    cli.write_matrix(nondens, np.diag([0.9, 0.9]).astype(complex))
    rc = cli.main(["compute", "umegaki", "--state", str(nondens), "--state2", matrix_files["d2"]])
    assert rc == 3
    assert "trace" in capsys.readouterr().err


def test_compute_non_hermitian_obs_exit_3(tmp_path, matrix_files):
    skew = tmp_path / "sk.json"
    cli.write_matrix(skew, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    rc = cli.main(
        ["compute", "skew", "--fn", "sld", "--state", matrix_files["d2"], "--obs", str(skew)]
    )
    assert rc == 3


_OBSERVABLE_QUANTITIES = {
    "skew": ["skew", "--fn", "sld"],
    "wyd": ["wyd", "--p", "0.5"],
    "cov": ["cov"],
    "gen-cov": ["gen-cov", "--fn", "sld"],
    "fisher": ["fisher", "--fn", "sld"],
    "quasi-entropy": ["quasi-entropy", "--kernel", "power:0.5"],
}


@pytest.mark.parametrize(
    "args, entry",
    [(args, np.nan) for args in _OBSERVABLE_QUANTITIES.values()]
    + [(args, np.inf) for args in _OBSERVABLE_QUANTITIES.values()],
    ids=[*_OBSERVABLE_QUANTITIES, *(f"{q}-inf" for q in _OBSERVABLE_QUANTITIES)],
)
def test_compute_nan_observable_exit_3(tmp_path, matrix_files, args, entry, capsys):
    bad_obs = tmp_path / "bad.json"
    cli.write_matrix(bad_obs, np.array([[entry, 1.0], [1.0, 0.0]], dtype=complex))
    argv = ["compute", *args, "--state", matrix_files["d2"], "--state2", matrix_files["d1"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([*argv, "--obs", str(bad_obs)])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == "error: matrix has non-finite entries\n"


def test_compute_missing_required_flag_is_usage_error(matrix_files):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "umegaki", "--state", matrix_files["d1"]])
    assert exc.value.code == 2


def test_compute_unknown_function_exit_4(matrix_files):
    rc = cli.main(
        ["compute", "skew", "--fn", "bogus", "--state", matrix_files["d2"], "--obs", matrix_files["x"]]
    )
    assert rc == 4


def test_compute_hansen_function_from_file(tmp_path, matrix_files, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text("[[1.0, 1.0]]")  # point mass at 1 gives the arithmetic-mean function
    rc = cli.main(
        ["compute", "skew", "--fn", f"hansen:{mu}", "--state", matrix_files["d2"], "--obs", matrix_files["x"]]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.25"


@pytest.mark.parametrize(
    "text", ["[[0.5, NaN]]", "[[NaN, 1.0]]", "[[0.5, 1" + "0" * 400 + "]]"],
    ids=["nan-weight", "nan-atom", "huge-integer"],
)
def test_compute_hansen_non_finite_measure_exit_3(tmp_path, matrix_files, text, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(text)
    rc = cli.main(
        ["compute", "skew", "--fn", f"hansen:{mu}", "--state", matrix_files["d2"], "--obs", matrix_files["x"]]
    )
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("error: measure ")


def test_compute_integer_beyond_float_range_exit_3(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"n": 1, "data": [[[1' + "0" * 400 + ", 0]]]}")
    rc = cli.main(["compute", "umegaki", "--state", str(big), "--state2", str(big)])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == "error: matrix has non-finite entries\n"


def test_verify_writes_report_and_exit_zero(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = cli.main(
        ["verify", "skew-identity", "--trials", "20", "--dim", "4", "--seed", "7", "--report", str(report)]
    )
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["seed"] == 7
    assert payload["suites"][0]["suite"] == "skew-identity"
    assert payload["suites"][0]["max_residual"] <= 1e-9
    assert payload["suites"][0]["failures"] == []


def test_verify_report_is_deterministic_apart_from_elapsed(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        rc = cli.main(
            ["verify", "renyi-limit", "--trials", "10", "--dim", "3", "--seed", "2", "--report", str(path)]
        )
        assert rc == 0

    def strip_elapsed(text):
        payload = json.loads(text)
        for suite in payload["suites"]:
            suite.pop("elapsed")
        return json.dumps(payload, sort_keys=True)

    a, b = (p.read_text() for p in paths)
    assert strip_elapsed(a) == strip_elapsed(b)
    # byte-identical apart from the elapsed lines
    kept_a = [ln for ln in a.splitlines() if '"elapsed"' not in ln]
    kept_b = [ln for ln in b.splitlines() if '"elapsed"' not in ln]
    assert kept_a == kept_b


def test_verify_all_zero_trials(capsys):
    rc = cli.main(["verify", "all", "--trials", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["suites"]) == len(SUITE_NAMES)
    assert all(s["failures"] == [] for s in payload["suites"])


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qig verify")
    assert "qig verify: error: argument suite: invalid choice: 'bogus' (choose from 'standardness'," in err


def test_verify_tolerance_override_failure_exit_1(capsys):
    rc = cli.main(
        ["verify", "wyd-consistency", "--trials", "3", "--dim", "3", "--tol", "residual=0"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAIL wyd-consistency" in err


@pytest.mark.parametrize("suite", ["skew-identity", "hessian"])
def test_verify_dimension_one_centered_observable_exit_4(suite, capsys):
    rc = cli.main(["verify", suite, "--trials", "1", "--dim", "1"])
    assert rc == 4
    assert "dimension at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["det-uncertainty", "hessian", "skew-identity"])
def test_verify_dimension_one_gives_one_message_for_every_observable_suite(suite, capsys):
    rc = cli.main(["verify", suite, "--dim", "1,2", "--seed", "4", "--trials", "30"])
    assert rc == 4
    assert capsys.readouterr().err == "error: a nonzero centered observable needs dimension at least 2\n"
    one = verify.random_density(1)
    with pytest.raises(DomainError, match="^a nonzero centered observable needs dimension at least 2$"):
        verify.orthonormal_centered_observables(one, 1, np.random.default_rng(0))


def test_verify_incomplete_step_exit_1(monkeypatch, capsys):
    def runner(rng, dims):
        raise VerificationError("no finite-difference step keeps the states positive definite")

    monkeypatch.setitem(verify._SUITES, "hessian", verify._SUITES["hessian"]._replace(draw=runner))
    rc = cli.main(["verify", "hessian", "--trials", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "FAIL hessian seed 0:0: VerificationError: "
        "no finite-difference step keeps the states positive definite\n"
    )


def test_verify_nonpositive_dimension_exit_4_without_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = cli.main(["verify", "all", "--trials", "1", "--dim", "0,2", "--report", str(report)])
    assert rc == 4
    assert capsys.readouterr().err == "error: dims must be positive integers, got (0, 2)\n"
    assert not report.exists()


def test_verify_negative_trials_exit_4_without_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = cli.main(["verify", "wyd-consistency", "--trials", "-3", "--report", str(report)])
    assert rc == 4
    assert capsys.readouterr().err == "error: trials must be nonnegative, got -3\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--tol", "margin1e-8"], "tolerance override must look like margin=1e-8, got 'margin1e-8'"),
        (["--tol", "residual=x"], "invalid tolerance value in 'residual=x'"),
        (["--tol", "residual=nan"], "tolerance 'residual' must be a real number or infinite, got nan"),
        (["--dim", "2,x"], "invalid dimension list '2,x'"),
    ],
)
def test_verify_malformed_tolerance_or_dimension_exit_4_without_report(tmp_path, args, message, capsys):
    report = tmp_path / "report.json"
    rc = cli.main(["verify", "all", "--trials", "1", *args, "--report", str(report)])
    assert rc == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def test_verify_defaults_to_each_suites_own_trials_and_dims(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["verify", "renyi-limit", "--seed", "17", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["trials"] is None and payload["dims"] is None
    assert payload["suites"][0]["trials"] == verify._SUITES["renyi-limit"].trials
    assert cli.main(["verify", "renyi-limit", "--seed", "17", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "- trials: per suite\n- dims: per suite\n" in out


def test_verify_unknown_tolerance_exit_4_without_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = cli.main(["verify", "all", "--trials", "1", "--tol", "bogus=1", "--report", str(report)])
    assert rc == 4
    assert capsys.readouterr().err == "error: unknown tolerance 'bogus'\n"
    assert not report.exists()


def test_verify_markdown_format(capsys):
    rc = cli.main(["verify", "skew-identity", "--trials", "5", "--format", "markdown"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "| suite |" in out and "skew-identity" in out


def test_verify_dim_list(capsys):
    rc = cli.main(["verify", "oracle-equivalence", "--trials", "5", "--dim", "2,3"])
    assert rc == 0


def test_list_output(capsys):
    rc = cli.main(["list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sld f(0)=0.5" in out
    assert "wyd:<p> f(0)=p(1-p)" in out
    for name in SUITE_NAMES:
        assert name in out
    assert len(SUITE_NAMES) == 13
    assert out == (DATA / "list_output.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("kernel", ["neglog", "power:0.5", "power:2", "identity"])
def test_compute_quasi_entropy_without_obs_prints_the_identity_operands_value(tmp_path, kernel, capsys):
    rng = np.random.default_rng(5)
    paths = {}
    for name, M in (
        ("d1", np.asarray(verify.random_density(3, 0.05, rng))),
        ("d2", np.asarray(verify.random_density(3, 0.05, rng))),
        ("eye", np.eye(3, dtype=complex)),
    ):
        paths[name] = str(tmp_path / f"{name}.json")
        cli.write_matrix(paths[name], M)
    args = ["compute", "quasi-entropy", "--kernel", kernel, "--state", paths["d1"], "--state2", paths["d2"]]
    printed = []
    for extra in ([], ["--obs", paths["eye"]]):
        assert cli.main(args + extra) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and printed[0].strip()

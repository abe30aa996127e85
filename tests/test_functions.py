import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qig import functions as fn, linalg
from qig.errors import DomainError, FileFormatError, InvariantViolation


def test_probe_grid_shape():
    grid = fn.probe_grid()
    assert grid.size == 61
    assert 1.0 in grid
    assert grid.min() == pytest.approx(1e-3) and grid.max() == pytest.approx(1e3)
    grid[0] = 5.0  # every call returns its own copy
    assert fn.probe_grid()[0] == pytest.approx(1e-3)


def test_sld_values():
    f = fn.sld()
    assert f(3.0) == 2.0
    assert f.value_at_zero == 0.5
    assert f.second_derivative_at_one == 0.0


def test_harmonic_values():
    f = fn.harmonic()
    assert f(1.0) == 1.0
    assert f(2.0) == pytest.approx(4.0 / 3.0)
    assert f.value_at_zero == 0.0


def test_wyd_values():
    f = fn.wyd(0.5)
    # f_{1/2}(x) = ((sqrt(x)+1)/2)^2, so f(4) = 9/4
    assert float(f(4.0)) == pytest.approx(9.0 / 4.0, abs=1e-14)
    assert float(f(np.asarray(1.0))) == pytest.approx(1.0, abs=1e-14)
    assert fn.wyd(0.3).value_at_zero == pytest.approx(0.21)
    with pytest.raises(DomainError):
        fn.wyd(0.0)
    with pytest.raises(DomainError):
        fn.wyd(1.0)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
def test_wyd_series_window_is_continuous(p):
    f = fn.wyd(p)
    # across the |x-1| = 1e-4 switch the two evaluation paths must agree
    for x in (1.0 - 1.2e-4, 1.0 - 0.8e-4, 1.0 + 0.8e-4, 1.0 + 1.2e-4):
        direct = p * (1 - p) * (x - 1) ** 2 / ((x**p - 1) * (x ** (1 - p) - 1))
        assert float(f(x)) == pytest.approx(direct, abs=1e-10)


def test_kubo_mori_values():
    f = fn.kubo_mori()
    assert float(f(np.e)) == pytest.approx(np.e - 1.0)
    assert float(f(np.asarray(1.0))) == 1.0
    assert f.value_at_zero == 0.0


def test_extremal_kernel_endpoints():
    assert fn.extremal_kernel(0.0)(2.0) == pytest.approx(3.0 / 4.0)
    assert fn.extremal_kernel(1.0)(2.0) == pytest.approx(2.0 / 3.0)
    for lam in (0.0, 0.3, 0.7, 1.0):
        assert fn.extremal_kernel(lam)(1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        fn.extremal_kernel(1.5)


def test_extremal_kernel_monotone_in_parameter():
    x = fn.probe_grid()
    lams = np.linspace(0.0, 1.0, 21)
    values = [fn.extremal_kernel(lam)(x) for lam in lams]
    for lo, hi in zip(values, values[1:]):
        assert np.all(lo >= hi - 1e-12)


def test_extremal_metric_matches_reciprocal_kernel():
    x = fn.probe_grid()
    for lam in (0.0, 0.4, 1.0):
        f = fn.extremal_metric(lam)
        assert_allclose(f(x), 1.0 / fn.extremal_kernel(lam)(x), rtol=1e-13)
    assert fn.extremal_metric(0.5).value_at_zero == pytest.approx(1.0 / 2.25)


def test_discrete_measure_invariants():
    with pytest.raises(InvariantViolation):
        fn.DiscreteMeasure((0.5,), (0.9,))
    with pytest.raises(InvariantViolation):
        fn.DiscreteMeasure((1.5,), (1.0,))
    with pytest.raises(InvariantViolation):
        fn.DiscreteMeasure((0.5, 0.5), (1.5, -0.5))
    m = fn.DiscreteMeasure.from_pairs([[0.0, 0.5], [1.0, 0.5]])
    assert m.atoms == (0.0, 1.0)


def test_hansen_point_masses_reproduce_extremal_kernels():
    x = fn.probe_grid()
    for lam in (0.0, 1.0, 0.37):
        f = fn.hansen_mixture(fn.dirac(lam))
        g = fn.extremal_kernel(lam)(x)
        assert np.max(np.abs(f(x) - 1.0 / g)) <= 1e-14 * np.max(1.0 / g)
    assert fn.hansen_mixture(fn.dirac(0.0))(2.0) == pytest.approx(4.0 / 3.0)
    assert fn.hansen_mixture(fn.dirac(1.0))(2.0) == pytest.approx(3.0 / 2.0)


def test_hansen_mixture_normalization_and_envelope():
    m = fn.DiscreteMeasure((0.0, 1.0), (0.5, 0.5))
    f = fn.hansen_mixture(m)
    assert float(f(1.0)) == pytest.approx(1.0)
    assert f.value_at_zero == 0.0
    x = fn.probe_grid()
    inv = 1.0 / f(x)
    assert np.all(inv <= fn.extremal_kernel(0.0)(x) + 1e-12)
    assert np.all(inv >= fn.extremal_kernel(1.0)(x) - 1e-12)


def test_hansen_value_at_zero_analytic():
    m = fn.DiscreteMeasure((0.5, 0.25), (0.4, 0.6))
    f = fn.hansen_mixture(m)
    expected = 1.0 / (0.4 * 1.5**2 / 1.0 + 0.6 * 1.25**2 / 0.5)
    assert f.value_at_zero == pytest.approx(expected, rel=1e-14)


def test_covariance_kernel_of_sld_is_harmonic():
    x = fn.probe_grid()
    assert_allclose(fn.covariance_kernel(fn.sld())(x), fn.harmonic()(x), atol=1e-13)


def test_covariance_kernel_of_harmonic_is_sld():
    x = fn.probe_grid()
    assert_allclose(fn.covariance_kernel(fn.harmonic())(x), fn.sld()(x), atol=1e-13)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_covariance_kernel_of_wyd_closed_form(p):
    # algebraic simplification: ((x+1) - (x^p-1)(x^{1-p}-1))/2 = (x^p + x^{1-p})/2
    x = fn.probe_grid()
    ft = fn.covariance_kernel(fn.wyd(p))
    assert_allclose(ft(x), (x**p + x ** (1 - p)) / 2.0, rtol=1e-11)
    assert ft.value_at_zero == 0.0
    assert ft.second_derivative_at_one == pytest.approx(-p * (1 - p))


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.9])
def test_covariance_kernel_of_extremal_closed_form(lam):
    x = fn.probe_grid()
    ft = fn.covariance_kernel(fn.extremal_metric(lam))
    ref = x * (x * lam**2 + lam**2 + 2 * lam + 2 * x * lam + x + 1) / (
        2 * (x + lam) * (1 + x * lam)
    )
    assert_allclose(ft(x), ref, rtol=1e-12)


def test_covariance_kernel_fixes_one_and_symmetry():
    x = fn.probe_grid()
    for f in (fn.sld(), fn.wyd(0.3), fn.extremal_metric(0.6), fn.kubo_mori()):
        ft = fn.covariance_kernel(f)
        assert float(np.asarray(ft(np.asarray(1.0)))) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(x * ft(1.0 / x) - ft(x))) < 1e-10


def test_covariance_kernel_needs_standard_input():
    with pytest.raises(DomainError):
        fn.covariance_kernel(fn.power_kernel(0.5))


def test_check_standard_passes_catalog():
    for f in (fn.sld(), fn.harmonic(), fn.kubo_mori(), fn.wyd(0.3), fn.extremal_metric(0.7)):
        rep = fn.check_standard(f)
        assert rep.passed, (f.name, rep)
        assert rep.max_violation <= 1e-9


def test_check_standard_flags_linear():
    lin = fn.ScalarFunctionSpec("linear", lambda x: x, 0.0, 0.0, False, False)
    rep = fn.check_standard(lin, grid=[0.5, 2.0])
    assert not rep.passed
    assert rep.symmetry == pytest.approx(1.0)


def test_check_standard_grid_validation():
    with pytest.raises(DomainError):
        fn.check_standard(fn.sld(), grid=[])
    with pytest.raises(DomainError):
        fn.check_standard(fn.sld(), grid=[2.0, 3.0])
    with pytest.raises(DomainError):
        fn.check_standard(fn.sld(), grid=[-1.0, 2.0])
    with pytest.raises(DomainError):
        fn.check_standard(fn.sld(), grid=[math.nan, 0.5, 2.0])
    # the scalar inequality refuses the same grids, and needs no points on either side of 1
    for grid in ([], [0.0, 2.0], [-1.0, 2.0], [math.nan, 2.0]):
        with pytest.raises(DomainError, match="probe grid must be nonempty and strictly positive"):
            fn.scalar_inequality_check(fn.sld(), fn.sld(), grid=grid)
    assert fn.scalar_inequality_check(fn.sld(), fn.sld(), grid=[2.0, 3.0]).passed


def test_probe_points_where_the_checks_overflow_are_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape("probe grid points must lie in [1e-150, 1e+150]")):
            fn.scalar_inequality_check(fn.sld(), fn.sld(), grid=[0.5, 2.0, 1e200])
        with pytest.raises(DomainError, match=re.escape("probe grid points must lie in [1e-150, 1e+150]")):
            fn.check_standard(fn.wyd(0.3), grid=[1e-200, 0.5, 2.0, 1e200])
        # the ends of the range are probe points
        edges = [1.0 / fn.PROBE_LIMIT, 0.5, 2.0, fn.PROBE_LIMIT]
        assert fn.scalar_inequality_check(fn.sld(), fn.sld(), grid=edges).min_margin == 0.0
        assert np.isfinite(fn.check_standard(fn.wyd(0.3), grid=edges).symmetry)


def test_check_operator_monotone_passes_affine():
    rep = fn.check_operator_monotone(fn.sld(), seed=0, trials=20, dim=3)
    assert rep.passed
    assert rep.loewner_margin >= -1e-8
    assert not rep.pick_skipped and rep.pick_margin >= -1e-10


def test_check_operator_monotone_rejects_square():
    sq = fn.ScalarFunctionSpec("square", lambda x: x**2, 0.0, 2.0, False, False)
    rep = fn.check_operator_monotone(sq, seed=2, trials=40, dim=2)
    assert not rep.passed
    assert rep.loewner_margin < -1e-8


def test_check_operator_monotone_passes_transformed_extremal():
    ft = fn.covariance_kernel(fn.extremal_metric(0.5))
    rep = fn.check_operator_monotone(ft, seed=1, trials=30, dim=3)
    assert rep.passed, rep


@pytest.mark.parametrize("dim", [0, -1, 2.5, True, np.True_])
def test_check_operator_monotone_rejects_a_dimension_below_one(dim, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be drawn for an invalid dimension")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(DomainError, match="dimension must be at least 1"):
        fn.check_operator_monotone(fn.sld(), seed=0, trials=4, dim=dim)


def _loewner_margin_pair_by_pair(f, seed, trials, dim):
    """The Loewner sub-check computed one 2-D pair at a time."""
    rng = np.random.default_rng(seed)
    loewner = math.inf
    for _ in range(trials):
        w = rng.uniform(1e-3, 4.5, size=dim)
        U = linalg.phase_fixed_qr(linalg.ginibre(linalg.draw_ginibre(rng, (dim, dim))))
        A = (U * w) @ U.conj().T
        A = (A + A.conj().T) / 2
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        P = G @ G.conj().T
        headroom = 10.0 - float(np.max(w))
        P *= rng.uniform(0.05, 1.0) * headroom / float(np.linalg.eigvalsh(P)[-1])
        B = (A + P + (A + P).conj().T) / 2
        diff = linalg.apply_matrix_function(f, B) - linalg.apply_matrix_function(f, A)
        diff = (diff + diff.conj().T) / 2
        loewner = min(loewner, float(np.linalg.eigvalsh(diff)[0]))
    return loewner


@pytest.mark.parametrize("trials, seeds", [(0, 200), (4, 200), (40, 50)])
def test_check_operator_monotone_stack_equals_the_pair_by_pair_check(trials, seeds):
    # dims 2..6 in turn; power:2 is not operator monotone, so margins go negative too
    kernels = (fn.sld(), fn.kubo_mori(), fn.wyd(0.3), fn.power_kernel(2.0))
    for seed in range(seeds):
        dim = 2 + seed % 5
        f = kernels[seed % len(kernels)]
        rep = fn.check_operator_monotone(f, seed=seed, trials=trials, dim=dim)
        assert rep.loewner_margin == _loewner_margin_pair_by_pair(f, seed, trials, dim)


def test_check_operator_monotone_pick_skip_flag():
    def real_only(x):
        if np.iscomplexobj(np.asarray(x)):
            raise TypeError("real arguments only")
        return (1.0 + x) / 2.0

    spec = fn.ScalarFunctionSpec("opaque", real_only, 0.5, 0.0, True, True)
    rep = fn.check_operator_monotone(spec, seed=0, trials=5, dim=2)
    assert rep.pick_skipped and rep.pick_margin is None

    def broken(x):
        if np.iscomplexobj(np.asarray(x)):
            raise RuntimeError("a fault, not a real-only function")
        return (1.0 + x) / 2.0

    spec = fn.ScalarFunctionSpec("broken", broken, 0.5, 0.0, True, True)
    with pytest.raises(RuntimeError, match="a fault"):
        fn.check_operator_monotone(spec, seed=0, trials=5, dim=2)


def test_pick_margins_skip_only_the_member_that_refuses_complex_arguments():
    def real_only(x):
        if np.iscomplexobj(np.asarray(x)):
            raise TypeError("real arguments only")
        return (1.0 + x) / 2.0

    opaque = fn.ScalarFunctionSpec("opaque", real_only, 0.5, 0.0, True, True)
    fs = (fn.sld(), fn.wyd(0.3), opaque, fn.power_kernel(2.0), fn.kubo_mori())
    seeds = tuple(range(len(fs)))
    rep = fn.check_operator_monotone(fs, seed=seeds, trials=3, dim=2)
    assert rep.pick_skipped.tolist() == [False, False, True, False, False]
    assert math.isnan(rep.pick_margin[2])
    for j, f in enumerate(fs):
        if j == 2:
            continue
        one = fn.check_operator_monotone(f, seed=seeds[j], trials=3, dim=2)
        assert (rep.pick_margin[j], rep.loewner_margin[j], rep.passed[j]) == (
            one.pick_margin, one.loewner_margin, one.passed
        )


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_power_kernel_refuses_a_non_positive_or_non_finite_exponent(alpha):
    with pytest.raises(DomainError, match="power kernel needs a positive finite exponent"):
        fn.power_kernel(alpha)


def test_scalar_inequality_sld_pair():
    rep = fn.scalar_inequality_check(fn.sld(), fn.sld())
    assert rep.passed
    # (x+1)^2/4 - (x-1)^2/4 = x, so the grid minimum sits at the left edge
    assert rep.min_margin == pytest.approx(1e-3, rel=1e-6)
    # at the pivot the quadratic term vanishes and the margin is f(1) g(1) = 1
    f, g = fn.wyd(0.4), fn.kubo_mori()
    margin_at_one = float(np.asarray(f(1.0))) * float(np.asarray(g(1.0)))
    assert margin_at_one == pytest.approx(1.0, abs=1e-12)


def test_scalar_inequality_zero_at_zero_is_trivial():
    rep = fn.scalar_inequality_check(fn.harmonic(), fn.wyd(0.4))
    assert rep.passed and rep.min_margin >= 0.0


def test_scalar_inequality_needs_standard():
    with pytest.raises(DomainError):
        fn.scalar_inequality_check(fn.sld(), fn.power_kernel(0.5))


_CARRIED = (
    fn.sld(),
    fn.harmonic(),
    fn.kubo_mori(),
    fn.wyd(0.3),
    fn.extremal_metric(0.0),
    fn.extremal_metric(0.4),
    fn.extremal_metric(1.0),
    fn.hansen_mixture(fn.DiscreteMeasure((0.2, 0.7), (0.4, 0.6))),
    fn.hansen_mixture(fn.DiscreteMeasure((0.0, 0.5, 1.0), (0.2, 0.3, 0.5))),
    fn.covariance_kernel(fn.wyd(0.3)),
    fn.power_kernel(0.5),
    fn.neglog_kernel(),
    fn.renyi_kernel(0.5),
    fn.renyi_kernel(-0.5),
)


@pytest.mark.parametrize("F", _CARRIED, ids=lambda F: F.name)
def test_carried_second_derivative_matches_a_central_difference_of_the_kernel(F):
    def central(h):
        return (F(1.0 + h) - 2.0 * F(1.0) + F(1.0 - h)) / (h * h)

    # Richardson over h = 1e-2, 5e-3: truncation O(h^4), rounding ~1e-11
    estimate = (4.0 * central(5e-3) - central(1e-2)) / 3.0
    assert fn.second_derivative_at_one(F) == pytest.approx(float(estimate), abs=1e-8)


def test_second_derivative_at_one_is_carried_or_refused():
    assert fn.second_derivative_at_one(fn.power_kernel(2.0)) == 2.0
    assert fn.second_derivative_at_one(fn.power_kernel(1.0)) == 0.0
    bare = fn.ScalarFunctionSpec("nl", lambda x: -np.log(x), math.inf, None, False, False)
    for F in (bare, lambda x: x**3):
        with pytest.raises(DomainError, match="no second derivative"):
            fn.second_derivative_at_one(F)
    with pytest.raises(DomainError, match="no second derivative"):
        fn.hessian_kernel(bare)


def test_hessian_kernel_series_meets_the_direct_formula():
    # g(r) of x^2 is -(r+1)/r in closed form; the window edge sits at |r-1| = 1e-4
    g = fn.hessian_kernel(fn.power_kernel(2.0))
    r = 1.0 + np.array([-2e-4, -1e-4 - 1e-12, -1e-4 + 1e-12, 0.0, 1e-4 - 1e-12, 1e-4 + 1e-12, 2e-4])
    assert_allclose(g(r), -(r + 1.0) / r, rtol=1e-7)
    assert g(1.0) == -2.0
    assert fn.hessian_kernel(fn.sld())(np.geomspace(0.1, 10.0, 9)).tolist() == [0.0] * 9


@given(st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_wyd_symmetry_property(p):
    f = fn.wyd(p)
    x = fn.probe_grid()
    assert np.max(np.abs(x * f(1.0 / x) - f(x))) < 1e-10


def test_parse_function_spec_tokens(tmp_path):
    assert fn.parse_function_spec("sld").name == "sld"
    assert fn.parse_function_spec("kubo-mori").name == "kubo-mori"
    assert fn.parse_function_spec("wyd:0.5").name == "wyd:0.5"
    assert fn.parse_function_spec("extremal:0.25").name == "extremal:0.25"
    mu = tmp_path / "mu.json"
    mu.write_text("[[0.0, 0.5], [1.0, 0.5]]")
    spec = fn.parse_function_spec(f"hansen:{mu}")
    assert spec.value_at_zero == 0.0
    assert fn.parse_function_spec("power:0.5", allow_kernels=True).name == "power:0.5"
    assert fn.parse_function_spec("neglog", allow_kernels=True).name == "neglog"
    with pytest.raises(DomainError):
        fn.parse_function_spec("neglog")  # kernels rejected without the flag
    with pytest.raises(DomainError):
        fn.parse_function_spec("wyd")
    with pytest.raises(DomainError):
        fn.parse_function_spec("nope")
    for token in ("sld:3", "harmonic:abc", "neglog:2", "identity:7"):
        with pytest.raises(DomainError, match="takes no parameter"):
            fn.parse_function_spec(token, allow_kernels=True)


def test_load_measure_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[[0.5, 0.5]")
    with pytest.raises(FileFormatError):
        fn.load_measure(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"a": 1}')
    with pytest.raises(FileFormatError):
        fn.load_measure(wrong)
    for text in ('[["1.0", true]]', '[["1.0", 1.0]]', "[[1.0, true]]"):
        not_numbers = tmp_path / "not_numbers.json"
        not_numbers.write_text(text)  # loaded as a point mass at 1 when strings and bools were cast
        with pytest.raises(FileFormatError):
            fn.load_measure(not_numbers)
    unnorm = tmp_path / "unnorm.json"
    unnorm.write_text("[[0.5, 0.4]]")
    with pytest.raises(InvariantViolation):
        fn.load_measure(unnorm)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[[0.5, NaN]]", "measure weights must be nonnegative"),
        ("[[NaN, 1.0]]", "measure atoms must lie in [0, 1]"),
        ("[[0.5, 0.5], [0.2, NaN]]", "measure weights must be nonnegative"),
        ("[[0.5, Infinity]]", "measure weights must sum to one"),
        ("[[0.5, 1" + "0" * 400 + "]]", "measure entry too large for a float"),
    ],
    ids=["nan-weight", "nan-atom", "nan-second-weight", "inf-weight", "huge-integer"],
)
def test_load_measure_rejects_non_finite_entries(tmp_path, text, message):
    # every comparison with NaN is false, so checks must be written to fail on it
    path = tmp_path / "mu.json"
    path.write_text(text)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        fn.load_measure(path)


def test_check_operator_monotone_accepts_a_constant_function():
    # a constant is operator monotone: f(B) - f(A) = 0 and its Pick values are real
    rep = fn.check_operator_monotone(lambda x: 1.0, seed=3, trials=5)
    assert rep.passed and abs(rep.loewner_margin) <= 1e-12 and rep.pick_margin == 0.0
    both = fn.check_operator_monotone((lambda x: 1.0, fn.sld()), seed=(3, 4), trials=5)
    assert both.passed.tolist() == [True, True] and both.loewner_margin[0] == rep.loewner_margin


def test_series_kernel_values_away_from_one_do_not_depend_on_a_point_in_the_window():
    # a point inside the window is evaluated by the series; the others must not move
    x = np.geomspace(0.05, 20.0, 13)
    for f in (fn.kubo_mori(), fn.wyd(0.3), fn.wyd(0.5), fn.covariance_kernel(fn.wyd(0.7))):
        far = linalg.eval_scalar(f, x)
        near = linalg.eval_scalar(f, np.append(x, 1.0 + 5e-5))
        assert far.tobytes() == near[:-1].tobytes(), f.name


def test_kernel_calls_outside_eval_scalar_do_not_warn():
    # (x - 1)^2 overflows at 1e200: ignored by every path that calls a kernel's fn
    x = np.array([1e-200, 0.5, 1.0, 2.0, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (fn.wyd(0.3), fn.kubo_mori(), fn.neglog_kernel()):
            f(np.append(x, 0.0))
        with pytest.raises(DomainError, match="probe grid points must lie in"):
            fn.check_standard(fn.wyd(0.3), grid=x)
        with pytest.raises(DomainError, match="undefined"):
            linalg.eval_scalar(fn.wyd(0.3), x)

import math

import numpy as np
import pytest

from swapcal.properties import (
    AssumptionReport,
    LabelLaw,
    LawColumns,
    bernoulli_law,
    beta_law,
    check_assumption,
    eval_identification,
    expectile_property,
    identification_values,
    marginal_identification,
    mean_property,
    parse_property,
    point_mass_law,
    quantile_property,
    raw_moment_property,
)

ALL_PROPERTIES = [
    mean_property(),
    quantile_property(0.25),
    quantile_property(0.5),
    expectile_property(0.3),
    expectile_property(0.5),
    raw_moment_property(2),
    raw_moment_property(3),
]


def test_identification_worked_examples():
    assert eval_identification(mean_property(), 0.3, 1.0) == pytest.approx(-0.7)
    assert eval_identification(quantile_property(0.25), 0.7, 0.2) == pytest.approx(0.75)
    assert eval_identification(expectile_property(0.5), 0.8, 0.3) == pytest.approx(0.25)
    assert eval_identification(raw_moment_property(2), 0.5, 0.5) == pytest.approx(0.25)


def test_identification_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"prediction must lie in \[0, 1\], got 1.2"):
        eval_identification(mean_property(), 1.2, 0.5)
    with pytest.raises(ValueError, match=r"label must lie in \[0, 1\], got -0.1"):
        eval_identification(mean_property(), 0.5, -0.1)
    with pytest.raises(ValueError, match="prediction .* got nan"):
        eval_identification(mean_property(), float("nan"), 0.5)
    with pytest.raises(ValueError, match="label .* got inf"):
        eval_identification(mean_property(), 0.5, float("inf"))
    with pytest.raises(ValueError, match="prediction .* got -inf"):  # the prediction is checked first
        eval_identification(mean_property(), float("-inf"), float("nan"))


def test_parameter_validation():
    with pytest.raises(ValueError):
        quantile_property(1.5)
    with pytest.raises(ValueError):
        expectile_property(0.0)
    with pytest.raises(ValueError):
        raw_moment_property(0)
    with pytest.raises(ValueError):
        mean_property(rho=-1.0)


def test_range_bounded_on_grid():
    # every built-in stays inside [-1, 1] on a 101 x 101 grid
    grid = np.linspace(0.0, 1.0, 101)
    for prop in ALL_PROPERTIES:
        vals = identification_values(prop, grid[:, None], grid[None, :])
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_pointwise_lipschitz_in_p():
    # mean / expectile / raw moment: |ident(p2, y) - ident(p1, y)| <= |p2 - p1|
    grid = np.linspace(0.0, 1.0, 101)
    for prop in ALL_PROPERTIES:
        if prop.kind == "quantile":
            continue
        vals = identification_values(prop, grid[:, None], grid[None, :])
        steps = np.abs(np.diff(vals, axis=0))
        assert np.max(steps) <= 0.01 + 1e-12


def test_scalar_matches_vectorized():
    rng = np.random.default_rng(0)
    p = rng.random(50)
    y = rng.random(50)
    for prop in ALL_PROPERTIES:
        vec = identification_values(prop, p, y)
        scalar = np.array([eval_identification(prop, pi, yi) for pi, yi in zip(p, y)])
        np.testing.assert_allclose(vec, scalar, atol=0)


def test_marginal_worked_examples():
    assert marginal_identification(mean_property(), 0.0, bernoulli_law(0.5)) == pytest.approx(-0.5)
    for law in (bernoulli_law(0.3), beta_law(2, 2), point_mass_law(0.7)):
        assert marginal_identification(quantile_property(0.5), 1.0, law) == pytest.approx(0.5)
    assert marginal_identification(mean_property(), 0.5, point_mass_law(0.5)) == 0.0


@pytest.mark.parametrize("law", [bernoulli_law(0.35), beta_law(2.0, 2.0), beta_law(1.5, 3.0), point_mass_law(0.6)])
@pytest.mark.parametrize("prop", ALL_PROPERTIES, ids=lambda p: p.name)
def test_marginal_matches_monte_carlo(prop, law):
    # closed form within 3 standard errors of a 1e5-sample average
    rng = np.random.default_rng(12345)
    n = 10**5
    draws = np.array([law.sample(u) for u in rng.random(n)])
    for p in (0.0, 0.31, 0.5, 0.77, 1.0):
        samples = identification_values(prop, np.full(n, p), draws)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - marginal_identification(prop, p, law)) <= 3.0 * se + 1e-12


def test_quantile_marginal_lipschitz_for_beta():
    # beta(2, 2) has density at most 1.5, so the quantile marginal is 1.5-Lipschitz
    prop = quantile_property(0.5, rho=1.5)
    law = beta_law(2.0, 2.0)
    grid = np.linspace(0.0, 1.0, 101)
    vals = np.array([marginal_identification(prop, p, law) for p in grid])
    assert np.max(np.abs(np.diff(vals))) <= 1.5 * 0.01 + 1e-12


def test_check_assumption_pass_for_mean_bernoulli():
    report = check_assumption(mean_property(), [bernoulli_law(0.5)], 101)
    assert isinstance(report, AssumptionReport)
    assert report.passed
    assert report.checks[0].lipschitz_estimate == pytest.approx(1.0)


def test_check_assumption_flags_step_cdf():
    report = check_assumption(quantile_property(0.5), [point_mass_law(0.3)], 101)
    assert not report.passed
    check = report.checks[0]
    assert not check.lipschitz_ok
    assert check.lipschitz_estimate >= 101.0
    assert report.violations


def test_check_assumption_boundary_sign():
    report = check_assumption(mean_property(), [point_mass_law(0.0)], 101)
    assert report.checks[0].sign_at_zero_ok
    assert report.passed


def test_check_assumption_argument_errors():
    with pytest.raises(ValueError):
        check_assumption(mean_property(), [], 101)
    with pytest.raises(ValueError):
        check_assumption(mean_property(), [bernoulli_law(0.5)], 1)


def test_sign_conditions_on_valid_pairings():
    # ident(0, law) <= 0 and ident(1, law) >= 0 on assumption-satisfying
    # pairings; quantiles need atom-free laws (an atom at 0 pushes the CDF
    # above the quantile level already at p = 0)
    laws = [bernoulli_law(0.0), bernoulli_law(1.0), beta_law(2, 5), point_mass_law(0.4)]
    beta_only = [beta_law(2, 5), beta_law(2, 2), beta_law(1.5, 4)]
    for prop in ALL_PROPERTIES:
        for law in beta_only if prop.kind == "quantile" else laws:
            assert marginal_identification(prop, 0.0, law) <= 1e-12
            assert marginal_identification(prop, 1.0, law) >= -1e-12


def test_label_law_validation():
    with pytest.raises(ValueError):
        bernoulli_law(1.2)
    with pytest.raises(ValueError):
        beta_law(0.0, 1.0)
    with pytest.raises(ValueError):
        point_mass_law(-0.5)
    with pytest.raises(ValueError):
        LabelLaw("gamma", (1.0,))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_beta_laws_reject_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        beta_law(bad, 2.0)
    with pytest.raises(ValueError, match="finite"):
        beta_law(2.0, bad)
    with pytest.raises(ValueError, match="beta law 1"):
        LawColumns("beta", (np.array([2.0, bad]), np.array([2.0, 2.0])))
    with pytest.raises(ValueError, match="beta law 0"):
        LawColumns("beta", (np.array([2.0, 2.0]), np.array([bad, 2.0])))


def test_parse_property_specs():
    assert parse_property("mean").kind == "mean"
    q = parse_property("quantile:q=0.5")
    assert q.kind == "quantile" and q.param == 0.5
    e = parse_property("expectile:tau=0.3")
    assert e.kind == "expectile" and e.param == 0.3
    m = parse_property("moment:k=2")
    assert m.kind == "raw_moment" and m.param == 2
    custom = parse_property("quantile:q=0.5,rho=1.5")
    assert custom.lipschitz_rho == 1.5
    with pytest.raises(ValueError):
        parse_property("variance")
    with pytest.raises(ValueError):
        parse_property("quantile:level=0.5")

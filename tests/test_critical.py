"""Fixed-point solver, rate functions, and the threshold table."""

import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from andloc import critical

import oracles
from test_acceptance import LAMBDA_AG_EXPECTED, LAMBDA_AND_EXPECTED, MU_UPPER

E = math.e

# raw roots from table_one at the built-in mu bounds, pinned for regression
RAW_LAMBDA_AND = {
    2: 22.768300091435126,
    3: 50.258570183693784,
    4: 81.4505167207096,
    5: 114.08429668509805,
    6: 147.90989534866813,
}
ROUNDED_LAMBDA_AND = {2: 22.8, 3: 50.3, 4: 81.5, 5: 114.1, 6: 148.0}
ROUNDED_LAMBDA_AG = {2: 100.2, 3: 167.0, 4: 238.1, 5: 312.3, 6: 389.1}


def test_solver_matches_brentq():
    # independent root finder on the same bracket
    for a in np.linspace(2.8, 40.0, 25):
        lam = critical.solve_fixed_point(a)
        ref = brentq(lambda t: t - a * math.log(t), a, a**3, xtol=1e-13)
        assert lam == pytest.approx(ref, rel=1e-10)


def test_threshold_table_matches_oracle():
    # the acceptance table against 50-digit decimal bisection, outside
    # criterion 1's timed budget
    assert MU_UPPER == critical.DEFAULT_MU_UPPER, "MU_UPPER"
    rows = oracles.threshold_rows(MU_UPPER)
    assert LAMBDA_AND_EXPECTED == rows["lambda_and"], "LAMBDA_AND_EXPECTED"
    assert LAMBDA_AG_EXPECTED == rows["lambda_ag"], "LAMBDA_AG_EXPECTED"


def test_solver_residual_certificate():
    for a in (2.75, 3.0, 7.29, 26.6, 120.0):
        lam = critical.solve_fixed_point(a)
        assert abs(lam - a * math.log(lam)) < 1e-12
        assert lam > a  # larger root sits above the coefficient


def test_solver_no_root():
    with pytest.raises(critical.NoRootError):
        critical.solve_fixed_point(E)
    with pytest.raises(critical.NoRootError):
        critical.solve_fixed_point(1.5)


@pytest.mark.parametrize("a", [math.inf, math.nan, 1e308 * E],
                         ids=["inf", "nan", "mu-e-overflows"])
def test_solver_no_root_for_non_finite_a(a):
    # a = mu e overflows to inf for mu = 1e308; Newton would run on inf - inf
    with pytest.raises(critical.NoRootError):
        critical.solve_fixed_point(a)


def _newton_from_a_squared(a):
    """Newton from a^2 with only the 1e-12 stop, None where it fails: the
    reference for every root that start reaches, the pinned ones included."""
    lam = a * a
    try:
        for _ in range(200):
            r = lam - a * math.log(lam)
            if abs(r) < 1e-12:
                return lam
            lam -= r / (1.0 - a / lam)
    except ValueError:  # an iterate at or below 0
        return None
    return None


def test_solver_keeps_a_squared_roots():
    # wherever Newton from a^2 converged, its root keeps its bits
    grid = np.concatenate([np.logspace(math.log10(2.7183), 18.1, 4000),
                           np.random.default_rng(0).uniform(2.7183, 1e4, 1000)])
    kept = 0
    for a in map(float, grid):
        ref = _newton_from_a_squared(a)
        if ref is not None:
            assert critical.solve_fixed_point(a) == ref, a
            kept += 1
    assert kept > 3900


@pytest.mark.parametrize("a", np.logspace(17, math.log10(2.5e305), 60).tolist())
def test_solver_huge_a_within_ulps(a):
    # a^2's first step cancels past a ~ 8e17 and a^2 overflows past 1.3e154
    lam = critical.solve_fixed_point(a)
    assert lam > a
    assert abs(lam - a * math.log(lam)) <= 4 * math.ulp(lam)


@pytest.mark.parametrize("a", [2.54e305, 1e306, sys.float_info.max])
def test_solver_root_past_float_range(a):
    with pytest.raises(critical.NoRootError, match="float range"):
        critical.solve_fixed_point(a)


def test_larger_root_selected():
    # at a = e^2/2 the two roots are well separated; the larger exceeds a ln a
    a = E**2 / 2
    lam = critical.solve_fixed_point(a)
    assert lam > a * math.log(a)


def test_report_values_pinned():
    for d, mu in critical.DEFAULT_MU_UPPER.items():
        rep = critical.criterion_report(d, mu)
        assert rep.lambda_and == pytest.approx(RAW_LAMBDA_AND[d], rel=1e-12)
        assert rep.rounded("lambda_and") == ROUNDED_LAMBDA_AND[d]
        assert rep.rounded("lambda_ag") == ROUNDED_LAMBDA_AG[d]


def test_report_residuals_small():
    rep = critical.criterion_report(3, 4.7114)
    for name, res in rep.residuals.items():
        assert res < 1e-10, name


def test_criteria_strictly_ordered():
    for d, mu in critical.DEFAULT_MU_UPPER.items():
        rep = critical.criterion_report(d, mu)
        assert (rep.lambda_and < rep.lambda_two_step
                < rep.lambda_intermediate < rep.lambda_ag)


def test_coefficients():
    # the four criteria use coefficients mu*e, sqrt(2d(2d-1))*e, 2d*e, 4d*e
    d, mu = 3, 4.7114
    rep = critical.criterion_report(d, mu)
    for lam, a in (
        (rep.lambda_and, mu * E),
        (rep.lambda_two_step, math.sqrt(2 * d * (2 * d - 1)) * E),
        (rep.lambda_intermediate, 2 * d * E),
        (rep.lambda_ag, 4 * d * E),
    ):
        assert lam == pytest.approx(a * math.log(lam), abs=1e-10)


def test_report_rejects_bad_mu():
    with pytest.raises(critical.NoRootError):
        critical.criterion_report(2, 1.0)


def test_round_up_last_digit():
    assert critical.round_up_last_digit(22.768300091435126) == 22.8
    assert critical.round_up_last_digit(81.4505167207096) == 81.5
    assert critical.round_up_last_digit(147.90989534866813) == 148.0
    # already-exact one-decimal values stay put
    assert critical.round_up_last_digit(22.8) == 22.8
    assert critical.round_up_last_digit(100.2) == 100.2
    # a hair above a tenth rounds up, never down
    assert critical.round_up_last_digit(22.80000000005) == 22.9
    # x * 10 rounds down to exactly 17.0; only the upward step reaches 1.8
    x = math.nextafter(1.7, math.inf)
    assert x * 10 == 17.0
    assert critical.round_up_last_digit(x) == 1.8


@pytest.mark.parametrize("x", [1.3858670064503854e22, 2.0**60, 1e200,
                               sys.float_info.max])
def test_round_up_last_digit_huge(x):
    # once ulp(x) reaches 0.2 every float is its own rounding; a search that
    # moved k by one would take about 5 ulp(x) steps
    assert critical.round_up_last_digit(x) == x


def test_gamma_fn():
    assert critical.gamma_fn(E) == pytest.approx(1.0, abs=1e-15)
    assert critical.gamma_fn(30.0) == pytest.approx(E * math.log(30.0) / 30.0,
                                                    rel=1e-15)
    # strictly decreasing past e
    vals = [critical.gamma_fn(x) for x in (3.0, 5.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        critical.gamma_fn(2.0)


def test_gamma_fn_fixed_point_is_inverse_mu():
    # at lambda solving lambda = mu e ln(lambda), gamma(lambda) = 1/mu
    mu = 4.7114
    lam = critical.solve_fixed_point(mu * E)
    assert critical.gamma_fn(lam) == pytest.approx(1.0 / mu, rel=1e-12)


def test_gamma_big():
    lam, s = 30.0, 0.5
    g = critical.gamma_big(s, lam)
    assert g == pytest.approx(1.0 / ((1 - s) * lam**s), rel=1e-15)


def test_s_crit_minimizes_gamma_big():
    rng = np.random.default_rng(7)
    s_grid = np.linspace(1e-6, 1 - 1e-6, 200_001)
    for lam in np.exp(rng.uniform(np.log(E + 1e-3), np.log(1e3), 20)):
        grid_vals = 1.0 / ((1.0 - s_grid) * lam**s_grid)
        k = int(np.argmin(grid_vals))
        s_star = critical.s_crit(lam)
        at_min = critical.gamma_big(s_star, lam)
        assert s_star == pytest.approx(1.0 - 1.0 / math.log(lam), rel=1e-14)
        assert abs(s_star - s_grid[k]) < 2e-5  # grid resolution
        assert at_min <= grid_vals[k] + 1e-12
        assert at_min == pytest.approx(grid_vals[k], abs=1e-8)
        # the minimum equals gamma(lambda)
        assert at_min == pytest.approx(critical.gamma_fn(lam), rel=1e-12)


def test_gamma_min_below_e():
    # for lambda <= e there is no interior minimum: s_crit does not exist
    # and Gamma increases on (0, 1), with inf Gamma = 1 at s -> 0+
    with pytest.raises(ValueError):
        critical.s_crit(2.0)
    vals = [critical.gamma_big(s, 2.0) for s in (1e-9, 0.1, 0.3, 0.6, 0.9)]
    assert vals[0] == pytest.approx(1.0, abs=1e-8)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_mass_zero_at_fixed_point():
    mu = 2.68
    lam_star = critical.solve_fixed_point(mu * E)
    m = critical.mass(lam_star, mu, 0.0)
    assert m.value == pytest.approx(0.0, abs=1e-12)
    above = critical.mass(lam_star * 1.05, mu, 0.0)
    below = critical.mass(lam_star * 0.95, mu, 0.0)
    assert above.positive and above.value > 0
    assert not below.positive and below.value < 0


def test_mass_epsilon_monotone():
    m0 = critical.mass(30.0, 2.68, 0.0)
    m1 = critical.mass(30.0, 2.68, 0.01)
    m2 = critical.mass(30.0, 2.68, 0.1)
    assert m0.value > m1.value > m2.value


def test_gamma_doubling_identity():
    # gamma(lambda^2) = 2 gamma(lambda) / lambda
    for lam in (3.0, 10.0, 30.0):
        assert critical.gamma_fn(lam**2) == pytest.approx(
            2.0 * critical.gamma_fn(lam) / lam, rel=1e-14)


def test_table_csv_layout():
    reports = critical.table_one()
    text = critical.table_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "quantity,2,3,4,5,6"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["mu_upper", "lambda_and", "lambda_two_step",
                     "lambda_intermediate", "lambda_ag"]
    and_row = lines[2].split(",")[1:]
    assert [float(v) for v in and_row] == [ROUNDED_LAMBDA_AND[d]
                                           for d in (2, 3, 4, 5, 6)]


def test_report_json_dict():
    rep = critical.criterion_report(2, 2.68)
    doc = rep.to_json_dict()
    assert doc["dimension"] == 2
    assert doc["mu_upper"] == 2.68
    assert doc["lambda_and_rounded"] == 22.8
    assert set(doc["residuals"]) == {"lambda_and", "lambda_two_step",
                                     "lambda_intermediate", "lambda_ag"}

"""Acceptance gate: every deliverable criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one status line per
criterion.  Each test prints `[criterion k] <name>: PASS|FAIL (elapsed)` and
enforces both the numerical tolerance and a wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from andloc import anderson, critical, moments, saw
from andloc.rng import substream

import oracles
from conftest import MC_DISTANCES, MC_LAM, MC_SAMPLES, MC_SEED, MC_Z

Z = 0.01j

# threshold table: inputs (mu upper bounds) and rounded-up outputs, frozen
# from the decimal-bisection oracle (python tests/oracles.py)
MU_UPPER = oracles.MU_UPPER
LAMBDA_AND_EXPECTED = {2: 22.8, 3: 50.3, 4: 81.5, 5: 114.1, 6: 148.0}
LAMBDA_AG_EXPECTED = {2: 100.2, 3: 167.0, 4: 238.1, 5: 312.3, 6: 389.1}


def _finish(num, name, t0, budget, failures):
    dt = time.monotonic() - t0
    over = dt > budget
    ok = not failures and not over
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)"
    if failures:
        line += " - " + "; ".join(failures)
    if over:
        line += f" - runtime {dt:.2f}s exceeds budget {budget}s"
    print(line)
    assert not failures, "; ".join(failures)
    assert not over, f"runtime {dt:.2f}s exceeds budget {budget}s"


def test_criterion_1_threshold_table():
    t0 = time.monotonic()
    failures = []
    for d, mu in MU_UPPER.items():
        rep = critical.criterion_report(d, mu)
        for res_name, res in rep.residuals.items():
            if res >= 1e-10:
                failures.append(f"d={d} {res_name} residual {res:.2e}")
        got_and = rep.rounded("lambda_and")
        if got_and != LAMBDA_AND_EXPECTED[d]:
            failures.append(
                f"d={d}: rounded lambda_and {got_and} != expected "
                f"{LAMBDA_AND_EXPECTED[d]} (root {rep.lambda_and!r} of "
                f"lambda = {mu}*e*ln(lambda), residual "
                f"{rep.residuals['lambda_and']:.1e})")
        got_ag = rep.rounded("lambda_ag")
        if got_ag != LAMBDA_AG_EXPECTED[d]:
            failures.append(f"d={d}: rounded lambda_ag {got_ag} != "
                            f"{LAMBDA_AG_EXPECTED[d]}")
    _finish(1, "threshold table reproduction", t0, 1.0, failures)


def test_criterion_2_exact_walk_counts(series_d2, series_d3):
    t0 = time.monotonic()
    failures = []
    brute2 = oracles.brute_force_totals(2, 8)
    if series_d2.totals[:9] != brute2:
        failures.append(f"d=2 totals {series_d2.totals[:9]} != oracle {brute2}")
    brute3 = oracles.brute_force_totals(3, 6)
    if series_d3.totals[:7] != brute3:
        failures.append(f"d=3 totals {series_d3.totals[:7]} != oracle {brute3}")
    defaults = {2: series_d2, 3: series_d3}
    for d in (2, 3, 4, 5, 6):
        series = defaults.get(d) or saw.enumerate_walks(d, saw.default_max_length(d))
        c = series.totals
        if c[1] != 2 * d or c[2] != 2 * d * (2 * d - 1):
            failures.append(f"d={d}: c_1={c[1]}, c_2={c[2]} wrong")
        for m in range(len(c)):
            for n in range(len(c) - m):
                if c[m + n] > c[m] * c[n]:
                    failures.append(f"d={d}: c_{m+n} > c_{m} c_{n}")
    _finish(2, "exact walk counts", t0, 120.0, failures)


def test_criterion_3_connective_bound(series_d3):
    t0 = time.monotonic()
    failures = []
    bounds = saw.connective_upper_bounds(series_d3)
    n, best = 10, bounds.best
    pinned = math.exp(math.log(8809878) / 10)
    if not math.isclose(best, pinned, rel_tol=1e-12):
        failures.append(f"c_10^(1/10) = {best!r} != {pinned!r}")
    if abs(best - 4.949) > 1e-3:
        failures.append(f"c_10^(1/10) = {best:.6f} not within 1e-3 of 4.949")
    if not (best >= 4.7114):
        failures.append(f"bound {best} fell below the sharp reference 4.7114")
    trivial_n = (2 * 3 * (2 * 3 - 1) ** (n - 1)) ** (1 / n)
    if not (best <= trivial_n):
        failures.append(f"bound {best} exceeds trivial {trivial_n}")
    _finish(3, "connective constant bound", t0, 10.0, failures)


def test_criterion_4_resolvent_identities():
    t0 = time.monotonic()
    failures = []
    lam = 1.0  # keeps |G| of order one so relative tolerance 1e-9 is honest
    rng = np.random.default_rng(2024)
    box = anderson.make_region(2, 5)
    worst = 0.0
    for t in range(100):
        k = int(rng.integers(0, 3))
        deleted = [box.sites[i]
                   for i in rng.choice(box.n_sites, size=k, replace=False)]
        region = anderson.make_region(2, 5, deleted)
        sample = anderson.sample_disorder(region, substream(77, t))
        i, j = rng.choice(region.n_sites, size=2, replace=False)
        x, y = region.sites[int(i)], region.sites[int(j)]
        err = anderson.verify_depleted_identity(region, lam, sample, Z, x, y)
        worst = max(worst, err)
        if err > 1e-9:
            failures.append(f"case {t}: depletion identity off by {err:.2e} "
                            f"at x={x}, y={y}, {k} deletions")
    for t in range(50):
        region = anderson.make_region(2, 5)
        sample = anderson.sample_disorder(region, substream(78, t))
        x = region.sites[int(rng.integers(region.n_sites))]
        err = anderson.verify_schur_diagonal(region, lam, sample, Z, x)
        if not err < 1e-9:
            failures.append(f"case {t}: diagonal inverse identity off by "
                            f"{err:.2e} at {x}")
    print(f"  max depletion discrepancy over 100 cases: {worst:.3e}")
    _finish(4, "resolvent identities", t0, 60.0, failures)


def test_criterion_5_integral_bound():
    t0 = time.monotonic()
    failures = []
    for s in (0.3, 0.5, 0.7, 0.9):
        for lam in (10.0, 30.0, 100.0):
            bound = critical.gamma_big(s, lam)
            sat = moments.apriori_integral(lam, s, 0j)
            if abs(sat / bound - 1.0) > 1e-10:
                failures.append(f"s={s}, lam={lam}: saturation off, "
                                f"{sat!r} vs {bound!r}")
            grid = moments.random_b_disc(2, lam, 100,
                                         seed=substream(55, int(10 * s)))
            ratio = moments.apriori_integral(lam, s, np.array(grid)).max() / bound
            if ratio > 1.0 + 1e-8:
                failures.append(f"s={s}, lam={lam}: ratio {ratio} > 1")
    _finish(5, "single-site integral bound", t0, 30.0, failures)


def test_criterion_6_walk_ceiling(series_d2, mc_estimates):
    t0 = time.monotonic()
    failures = []
    for est in mc_estimates:
        diff = tuple(a - b for a, b in zip(est.x, est.y))
        ceiling = moments.ceiling_value(series_d2, MC_LAM, diff)
        if ceiling - (est.mean - 3.0 * est.stderr) < 0.0:
            failures.append(
                f"distance {est.distance}: mean-3se "
                f"{est.mean - 3 * est.stderr:.3e} above ceiling "
                f"{ceiling:.3e}")
    _finish(6, "walk ceiling on moments", t0, 600.0, failures)


def test_criterion_7_decay_dominance(series_d2, mc_estimates):
    t0 = time.monotonic()
    failures = []
    mu_hat = saw.connective_upper_bounds(series_d2).best
    fit = moments.fit_decay(mc_estimates, MC_LAM, mu_hat, eps=0.01)
    if not fit.reference_positive:
        failures.append(f"reference rate {fit.reference_rate} not positive")
    if fit.fitted_rate < fit.reference_rate - 2.0 * fit.rate_stderr:
        failures.append(
            f"fitted rate {fit.fitted_rate:.4f} +- {fit.rate_stderr:.4f} "
            f"below reference {fit.reference_rate:.4f}")
    print(f"  fitted rate {fit.fitted_rate:.4f} +- {fit.rate_stderr:.4f}, "
          f"reference {fit.reference_rate:.4f}")
    _finish(7, "decay rate dominance", t0, 60.0, failures)


def test_criterion_8_worker_determinism(mc_region, mc_pairs, mc_estimates):
    t0 = time.monotonic()
    failures = []
    s = critical.s_crit(MC_LAM)
    redo = moments.estimate_moments(mc_region, MC_LAM, s, MC_Z, mc_pairs,
                                    MC_SAMPLES, MC_SEED, workers=3)
    for a, b in zip(mc_estimates, redo):
        if (a.mean, a.stderr) != (b.mean, b.stderr):
            failures.append(
                f"distance {a.distance}: workers=1 gives "
                f"({a.mean!r}, {a.stderr!r}), workers=3 gives "
                f"({b.mean!r}, {b.stderr!r})")
    _finish(8, "worker-count determinism", t0, 600.0, failures)

"""Exact walk enumeration against independent oracles and its invariants."""

import io
import json
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from andloc import cli, parallel, saw

import oracles

# frozen output of oracles.brute_force_totals / recursive_totals
BRUTE_D2_N8 = [1, 4, 12, 36, 100, 284, 780, 2172, 5916]
BRUTE_D3_N6 = [1, 6, 30, 150, 726, 3534, 16926]
RECURSIVE_D2_N12 = [1, 4, 12, 36, 100, 284, 780, 2172, 5916,
                    16268, 44100, 120292, 324932]
RECURSIVE_D3_N8 = [1, 6, 30, 150, 726, 3534, 16926, 81390, 387966]
# frozen oracles.recursive_endpoint_counts(2, 12) at (1, 0), n = 1..12
ENDPOINT_10_D2 = [1, 0, 2, 0, 6, 0, 28, 0, 140, 0, 744, 0]
# frozen oracles.correlation_partial(2, 12, 0.2, (1, 0))
CORR_PARTIAL_D2 = 0.21836531712000004


def test_totals_match_brute_force_d2():
    series = saw.enumerate_walks(2, 8)
    assert series.totals == BRUTE_D2_N8


def test_totals_match_brute_force_d3():
    series = saw.enumerate_walks(3, 6)
    assert series.totals == BRUTE_D3_N6


def test_totals_match_recursive_oracle_d2(series_d2):
    assert series_d2.totals[:13] == RECURSIVE_D2_N12


def test_totals_match_recursive_oracle_d3():
    series = saw.enumerate_walks(3, 8)
    assert series.totals == RECURSIVE_D3_N8


def test_live_oracle_agreement_small():
    # run the slow reference directly on a size small enough to be instant
    assert saw.enumerate_walks(2, 5).totals == oracles.brute_force_totals(2, 5)
    assert saw.enumerate_walks(3, 4).totals == oracles.brute_force_totals(3, 4)


# at d=6, N=4 no walk uses every axis, and many endpoint classes repeat a
# magnitude, so the orbit weights below 2^d d! and the class splits are checked;
# N = 0, 1, 2 are the tree walk's empty stack, a first level that is also the
# last, and the first self-avoidance check
@pytest.mark.parametrize("d, n_max", [(1, 12), (2, 8), (3, 6), (4, 5), (5, 5), (6, 4)]
                         + [(d, n) for d in range(1, 7) for n in range(3)])
def test_endpoint_counts_match_recursive_oracle(d, n_max):
    series = saw.enumerate_walks(d, n_max)
    layers = oracles.recursive_endpoint_counts(d, n_max)
    got = series.endpoints
    for n in range(n_max + 1):
        expect = {p: c for p, c in layers[n].items()}
        have = {p: counts[n] for p, counts in got.items() if counts[n]}
        assert have == expect, f"endpoint mismatch at n={n}"


def test_endpoint_counts_axis_point(series_d2):
    counts = series_d2.endpoints[(1, 0)]
    assert counts[1:13] == ENDPOINT_10_D2


def test_endpoint_parity(series_d2):
    # a length-n walk ends at x only when n and |x|_1 have equal parity
    for point, counts in series_d2.endpoints.items():
        dist = sum(abs(c) for c in point)
        for n, c in enumerate(counts):
            if (n - dist) % 2 != 0:
                assert c == 0


def test_endpoint_signed_permutation_symmetry():
    series = saw.enumerate_walks(2, 7)
    counts = series.endpoints
    for (a, b), vals in counts.items():
        for image in {(b, a), (-a, b), (a, -b), (-b, -a)}:
            assert counts.get(image, [0] * 8) == vals


def test_first_moments_exact():
    for d in range(1, 7):
        series = saw.enumerate_walks(d, 2)
        assert series.totals[0] == 1
        assert series.totals[1] == 2 * d
        assert series.totals[2] == 2 * d * (2 * d - 1)


def test_submultiplicative(series_d2):
    c = series_d2.totals
    for m in range(len(c)):
        for n in range(len(c) - m):
            assert c[m + n] <= c[m] * c[n]


def test_trivial_growth_bound(series_d2):
    d = 2
    for n in range(1, len(series_d2.totals)):
        assert series_d2.totals[n] <= 2 * d * (2 * d - 1) ** (n - 1)


def test_upper_bounds_halve_along_doubling(series_d2):
    # submultiplicativity makes c_{2n}^{1/2n} <= c_n^{1/n}
    bounds = dict(saw.connective_upper_bounds(series_d2).pairs)
    for n in (1, 2, 3, 4, 5, 6, 7):
        assert bounds[2 * n] <= bounds[n] + 1e-12


def test_connective_bounds_best(series_d2):
    bounds = saw.connective_upper_bounds(series_d2)
    assert bounds.trivial == 3.0
    assert bounds.best <= bounds.trivial
    # the true d=2 connective constant is about 2.638; upper bounds stay above
    assert bounds.best > 2.638
    expect = math.exp(math.log(series_d2.totals[14]) / 14)
    assert bounds.best == pytest.approx(expect, rel=1e-12)


def test_connective_bounds_empty_without_length_1_counts():
    bounds = saw.connective_upper_bounds(saw.enumerate_walks(2, 0))
    assert bounds.pairs == []
    assert bounds.trivial == 3.0
    with pytest.raises(ValueError, match="length-1"):
        bounds.best


def test_correlation_partial_frozen():
    series = saw.enumerate_walks(2, 12)
    val = saw.correlation(series, 0.2, (1, 0))
    assert val.partial_sum == pytest.approx(CORR_PARTIAL_D2, rel=1e-12)
    assert val.converged
    assert val.upper_bound >= val.partial_sum


def test_correlation_tail_formula():
    series = saw.enumerate_walks(2, 6)
    gamma = 0.15
    val = saw.correlation(series, gamma, (2, 0))
    c = series.totals
    r = 6
    t = c[r] * gamma ** r
    assert t < 1
    geom = sum(c[n] * gamma ** n for n in range(r))
    assert val.tail_bound == pytest.approx(t / (1 - t) * geom, rel=1e-12)


def test_correlation_divergent_gamma():
    series = saw.enumerate_walks(2, 6)
    val = saw.correlation(series, 0.9, (1, 0))
    assert not val.converged
    assert math.isinf(val.upper_bound)


def test_correlation_exact_fractions():
    series = saw.enumerate_walks(2, 6)
    val = saw.correlation(series, Fraction(1, 5), (1, 0))
    assert isinstance(val.partial_sum, Fraction)
    assert val.partial_sum == sum(
        Fraction(c, 5 ** n)
        for n, c in enumerate(series.endpoints[(1, 0)]))


def test_gamma_zero_and_negative_rejected():
    series = saw.enumerate_walks(2, 4)
    val = saw.correlation(series, 0.0, (1, 0))
    assert val.partial_sum == 0.0 or val.converged
    with pytest.raises(ValueError):
        saw.correlation(series, -0.1, (1, 0))


def test_default_max_length():
    assert saw.default_max_length(1) == 20
    assert saw.default_max_length(2) == 14
    assert saw.default_max_length(3) == 10
    assert saw.default_max_length(4) == 8
    assert saw.default_max_length(6) == 8


def test_ball_size():
    # |{x : |x|_1 <= r}| in d=2 is 2r^2 + 2r + 1
    for r in range(5):
        assert saw.ball_size(2, r) == 2 * r * r + 2 * r + 1
    assert saw.ball_size(3, 1) == 7


def test_memory_budget_enforced():
    with pytest.raises(saw.BudgetExceededError):
        saw.enumerate_walks(3, 10, memory_budget=1000)


@pytest.mark.parametrize("d, n_max", [(2, 10), (3, 6), (6, 5), (2, 14), (6, 8)])
def test_estimate_bytes_covers_traced_peak(tmp_path, d, n_max):
    # enumeration and the artifact write, as the saw command runs them
    tracemalloc.start()
    try:
        code = cli.main(["saw", "--dim", str(d), "--nmax", str(n_max),
                         "--out", str(tmp_path / "saw.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert saw._estimate_bytes(d, n_max) >= peak


def test_one_dimensional_walks_are_the_two_straight_ones():
    assert saw.enumerate_walks(1, 500).totals == [1] + [2] * 500


# with one walk per block, a block of a trapped walk has no extensions
@pytest.mark.parametrize("block", [1, 3])
def test_counts_do_not_depend_on_the_block_size(monkeypatch, block):
    expect = saw._canonical_counts(2, 9)
    monkeypatch.setattr(saw, "_BLOCK", block)
    assert saw._canonical_counts(2, 9) == expect
    assert saw.enumerate_walks(3, 5).totals == oracles.recursive_totals(3, 5)


def test_int64_guard_at_its_edge(monkeypatch):
    # 3^39 - 1 < 2^63 <= 3^40 - 1: the widest position codes at length 1
    assert sum(saw._canonical_counts(39, 1)[1].values()) == 78

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(saw, "_canonical_counts", reached)
    with pytest.raises(Reached):
        saw.enumerate_walks(39, 1)
    with pytest.raises(saw.BudgetExceededError, match="int64"):
        saw.enumerate_walks(40, 1)
    # d = N = 30: blocks sum up to 1024 * 60 * 2^30 * 30!, whatever the budget
    with pytest.raises(saw.BudgetExceededError, match="int64"):
        saw.enumerate_walks(30, 30, memory_budget=1 << 200)


def test_bad_arguments():
    with pytest.raises(ValueError):
        saw.enumerate_walks(0, 4)
    with pytest.raises(ValueError):
        saw.enumerate_walks(2, -1)


def test_saw_starts_no_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started for walk enumeration")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    code = cli.main(["saw", "--dim", "3", "--nmax", "6", "--workers", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["workers"] == 2
    assert doc["result"]["series"]["totals"] == [str(c) for c in BRUTE_D3_N6]


def test_totals_are_endpoint_sums(series_d3):
    counts = series_d3.endpoints
    for n, total in enumerate(series_d3.totals):
        assert total == sum(c[n] for c in counts.values())


def test_classes_one_per_sorted_magnitude():
    # every point with |y|_1 <= N ends a walk of length |y|_1
    series = saw.enumerate_walks(6, 4)
    magnitudes = {m for m in combinations_with_replacement(range(5), 6)
                  if sum(m) <= 4}
    assert set(series.classes) == magnitudes
    assert len(series.classes) == 12


def signed_permutations(cls):
    """The distinct signed permutations of a point, by brute force."""
    return {tuple(s * v for s, v in zip(signs, p))
            for p in permutations(cls) for signs in product((1, -1), repeat=len(cls))}


def test_class_rows_times_sizes_are_totals():
    series = saw.enumerate_walks(6, 4)
    sizes = {cls: len(signed_permutations(cls)) for cls in series.classes}
    for n, total in enumerate(series.totals):
        assert total == sum(row[n] * sizes[cls]
                            for cls, row in series.classes.items())


@pytest.mark.parametrize("d", [5, 6])
def test_class_size_counts_the_signed_permutations(d):
    classes = saw.enumerate_walks(d, 4).classes
    assert len(classes) > 1
    for cls in classes:
        assert saw._class_size(cls) == len(signed_permutations(cls))


@pytest.mark.parametrize("d", [9, 39])
def test_many_axes_split_without_listing_their_orderings(d):
    # 39 axes at length 1 is the widest shape the int64 guard lets through
    start = time.perf_counter()
    assert saw.enumerate_walks(d, 1).totals == [1, 2 * d]
    assert time.perf_counter() - start < 1.0


def test_a_ball_point_without_a_class_is_refused():
    # every point with |y|_1 <= N ends a shortest walk, so a series whose
    # classes miss one cannot have come from enumerate_walks
    series = saw.WalkSeries(dimension=2, max_length=1, totals=[1, 4],
                            classes={(0, 0): [1, 0]})
    with pytest.raises(ValueError, match="no class holds"):
        series.endpoints
    with pytest.raises(ValueError, match="no class holds"):
        series.write_endpoints(io.StringIO(), 0)


def test_correlation_invariant_under_signed_permutations(series_d3):
    gamma = Fraction(1, 7)
    expect = saw.correlation(series_d3, gamma, (2, -1, 0)).partial_sum
    assert expect > 0
    for perm in permutations((2, -1, 0)):
        for signs in product((1, -1), repeat=3):
            image = tuple(s * v for s, v in zip(signs, perm))
            assert saw.correlation(series_d3, gamma, image).partial_sum == expect

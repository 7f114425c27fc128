"""Shared session fixtures: walk series and the Monte Carlo data reused
across the acceptance criteria."""

import pytest

from andloc import anderson, critical, moments, saw


@pytest.fixture(scope="session")
def series_d2():
    return saw.enumerate_walks(2, 14)


@pytest.fixture(scope="session")
def series_d3():
    return saw.enumerate_walks(3, 10)


# Parameters for the decay/ceiling Monte Carlo run shared by the acceptance
# criteria: d=2 box of halfwidth 10, lambda=30, s = s_crit, z = 0.01i,
# x = k*e1 against the center, 2000 samples.
MC_LAM = 30.0
MC_Z = 0.01j
MC_L = 10
MC_DISTANCES = (1, 2, 3, 4, 5)
MC_SAMPLES = 2000
MC_SEED = 0


def _mc_pairs():
    origin = (0, 0)
    return [((k, 0), origin) for k in MC_DISTANCES]


@pytest.fixture(scope="session")
def mc_region():
    return anderson.Region(dimension=2, L=MC_L)


@pytest.fixture(scope="session")
def mc_estimates(mc_region):
    s = critical.s_crit(MC_LAM)
    return moments.estimate_moments(mc_region, MC_LAM, s, MC_Z, _mc_pairs(),
                                    MC_SAMPLES, MC_SEED, workers=1)


@pytest.fixture(scope="session")
def mc_pairs():
    return _mc_pairs()

"""The benchmark's workloads: the andloc command a round runs, the reference
run its result must equal, and the checks its outputs must pass.

Every check is a function of the collected outputs that returns a list of
failure messages.  Each workload also lists planted defects, one or more per
check, which the self-test applies to a copy of the outputs to show that the
matching check fails on them.

The outputs handed to checks are a dict with
  rounds     one entry per round whose command produced an artifact:
             {"seed", "exit", "digest", "doc"}; "doc" is the parsed artifact,
             kept for every round or, where all rounds have the same inputs,
             for the first one only;
  reference  the same for the reference run of the first round's inputs
             (None where the workload has none);
  extra      what the workload's prepare() computed by independent routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

LAMBDA = 30.0
Z = 0.01j

Outputs = dict
Check = Callable[[Outputs], list]


def round_seed(seed: int, index: int) -> int:
    """andloc seed of round `index` in a run with benchmark seed `seed`."""
    return 1000 * seed + index


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, int], list]   # (round seed, workers) -> andloc argv
    workers: int
    reference_workers: Optional[int]   # reruns the first round's inputs
    keep_every_doc: bool
    checks: dict[str, Check]
    defects: list                      # (description, check name, plant)
    prepare: Callable[[Outputs], dict] = lambda out: {}
    precision: Optional[Callable[[dict], float]] = None  # worst stderr/mean


def _runs(out: Outputs) -> list:
    return out["rounds"] + ([out["reference"]] if out["reference"] else [])


def _exit_zero(out: Outputs) -> list:
    runs = _runs(out)
    return [f"seed {r['seed']}: exit code {r['exit']}" for r in runs if r["exit"] != 0]


def _same_as_reference(out: Outputs) -> list:
    first, ref = out["rounds"][0], out["reference"]
    if first["doc"]["result"] != ref["doc"]["result"]:
        return [f"seed {first['seed']}: result differs from the "
                f"{ref['workers']}-worker reference run"]
    return []


# --- moment_box: Monte Carlo moments on an undepleted box ---

MOMENT_L = 8
MOMENT_SAMPLES = 2000
MOMENT_DISTANCES = list(range(0, 6))
DENSE_SAMPLES = 16


def _moment_argv(seed: int, workers: int) -> list:
    return ["moment", "--dim", "2", "--L", str(MOMENT_L), "--lambda", str(LAMBDA),
            "--samples", str(MOMENT_SAMPLES), "--distances", "0..5",
            "--seed", str(seed), "--workers", str(workers)]


def _s_crit() -> float:
    return 1.0 - 1.0 / math.log(LAMBDA)


def _estimates(record: dict) -> list:
    return record["doc"]["result"]["estimates"]


def _check_moment_shape(out: Outputs) -> list:
    bad = _exit_zero(out)
    s = _s_crit()
    for r in out["rounds"]:
        ests = _estimates(r)
        if [e["distance"] for e in ests] != MOMENT_DISTANCES:
            bad.append(f"seed {r['seed']}: distances {[e['distance'] for e in ests]}")
        for e in ests:
            if e["n_samples"] != MOMENT_SAMPLES or abs(e["s"] - s) > 1e-15:
                bad.append(f"seed {r['seed']}: n_samples {e['n_samples']}, s {e['s']}")
    return bad


def _check_positive(out: Outputs) -> list:
    bad = []
    for r in out["rounds"]:
        for e in _estimates(r):
            if not (math.isfinite(e["mean"]) and e["mean"] > 0.0
                    and math.isfinite(e["stderr"]) and e["stderr"] >= 0.0):
                bad.append(f"seed {r['seed']}: distance {e['distance']} mean "
                           f"{e['mean']} stderr {e['stderr']}")
    return bad


def _check_apriori_d0(out: Outputs) -> list:
    s = _s_crit()
    bound = 1.0 / ((1.0 - s) * LAMBDA**s)
    bad = []
    for r in out["rounds"]:
        e = _estimates(r)[0]
        if e["mean"] - 3.0 * e["stderr"] > bound:
            bad.append(f"seed {r['seed']}: E|G(x,x)|^s = {e['mean']} +- {e['stderr']} "
                       f"above the a priori bound {bound}")
    return bad


def _check_ceiling(out: Outputs) -> list:
    bad = []
    for r in out["rounds"]:
        for e in _estimates(r):
            if e["ceiling"] is None or e["ceiling"] - (e["mean"] - 3.0 * e["stderr"]) < 0.0:
                bad.append(f"seed {r['seed']}: distance {e['distance']} mean "
                           f"{e['mean']} over ceiling {e['ceiling']}")
    return bad


def _dense_moments(seed: int, s: float) -> tuple[list, list]:
    """Means and stderrs of |G(d e1, 0)|^s over the first DENSE_SAMPLES samples,
    from the program's site variates but an adjacency and a solve of our own."""
    from andloc.rng import site_uniform, substream

    L = MOMENT_L
    sites = list(itertools.product(range(-L, L + 1), repeat=2))
    index = {p: i for i, p in enumerate(sites)}
    hop = np.zeros((len(sites), len(sites)))
    for p, i in index.items():
        for q in ((p[0] + 1, p[1]), (p[0], p[1] + 1)):
            j = index.get(q)
            if j is not None:
                hop[i, j] = hop[j, i] = 1.0
    rhs = np.zeros(len(sites), dtype=complex)
    rhs[index[(0, 0)]] = 1.0
    rows = [index[(d, 0)] for d in MOMENT_DISTANCES]
    vals = []
    for k in range(DENSE_SAMPLES):
        sub = substream(seed, k)
        omega = np.array([site_uniform(sub, p) for p in sites])
        g = np.linalg.solve(hop + np.diag(LAMBDA * omega - Z), rhs)
        vals.append(np.abs(g[rows]) ** s)
    vals = np.array(vals)
    return (vals.mean(axis=0).tolist(),
            (vals.std(axis=0, ddof=1) / math.sqrt(DENSE_SAMPLES)).tolist())


def _moment_prepare(out: Outputs) -> dict:
    from andloc import anderson, moments

    s = _s_crit()
    region = anderson.Region(dimension=2, L=MOMENT_L)
    pairs = [((d, 0), (0, 0)) for d in MOMENT_DISTANCES]
    dense = []
    for r in out["rounds"]:
        lib = moments.estimate_moments(region, LAMBDA, s, Z, pairs, DENSE_SAMPLES,
                                       r["seed"], workers=1)
        dense.append({"seed": r["seed"],
                      "library": ([e.mean for e in lib], [e.stderr for e in lib]),
                      "dense": _dense_moments(r["seed"], s)})
    return {"dense": dense}


def _check_dense(out: Outputs) -> list:
    bad = []
    for case in out["extra"]["dense"]:
        for lib, ref in zip(case["library"], case["dense"]):
            for a, b in zip(lib, ref):
                if abs(a - b) > 1e-10 * abs(b):
                    bad.append(f"seed {case['seed']}: estimate_moments {a} "
                               f"against dense solve {b}")
    return bad


def _plant_negative_mean(out: Outputs) -> None:
    e = _estimates(out["rounds"][0])[3]
    e["mean"] = -e["mean"]


def _plant_d0_above_bound(out: Outputs) -> None:
    e = _estimates(out["rounds"][0])[0]
    e["mean"] = 1.0 + 10.0 * e["stderr"]


def _plant_mean_above_ceiling(out: Outputs) -> None:
    e = _estimates(out["rounds"][0])[5]
    e["mean"] = e["ceiling"] + 1.0


def _plant_library_mean(out: Outputs) -> None:
    means = out["extra"]["dense"][0]["library"][0]
    means[2] *= 1.0 + 1e-6


def _plant_one_ulp(out: Outputs) -> None:
    e = _estimates(out["rounds"][0])[4]
    e["mean"] = math.nextafter(e["mean"], math.inf)


def _plant_exit(out: Outputs) -> None:
    out["rounds"][0]["exit"] = 1


def _moment_precision(doc: dict) -> float:
    return max(e["stderr"] / e["mean"] for e in doc["result"]["estimates"])


MOMENT_BOX = Workload(
    name="moment_box",
    argv=_moment_argv,
    workers=1,
    reference_workers=2,
    keep_every_doc=True,
    checks={
        "shape": _check_moment_shape,
        "positive": _check_positive,
        "apriori_d0": _check_apriori_d0,
        "ceiling": _check_ceiling,
        "dense": _check_dense,
        "workers": _same_as_reference,
    },
    defects=[
        ("a non-zero exit code", "shape", _plant_exit),
        ("a negative mean", "positive", _plant_negative_mean),
        ("a distance-0 mean far above the a priori bound", "apriori_d0",
         _plant_d0_above_bound),
        ("a mean above its walk ceiling", "ceiling", _plant_mean_above_ceiling),
        ("a library mean off by 1e-6", "dense", _plant_library_mean),
        ("a mean one ulp off", "workers", _plant_one_ulp),
    ],
    prepare=_moment_prepare,
    precision=_moment_precision,
)


# --- saw_d6: exact walk enumeration in six dimensions ---

SAW_DIM = 6
SAW_NMAX = 8
ORACLE_NMAX = 5
#: c_7 and c_8 on Z^6 from tests/oracles.py recursive_totals(6, 8); see README
PINNED_TOTALS = {7: 20578452, 8: 224138292}


def _saw_argv(seed: int, workers: int) -> list:
    return ["saw", "--dim", str(SAW_DIM), "--nmax", str(SAW_NMAX),
            "--seed", str(seed), "--workers", str(workers)]


def _saw_prepare(out: Outputs) -> dict:
    import oracles

    # the parsed series replaces the 3.7 MB artifact in what the checks see
    series = out["rounds"][0].pop("doc")["result"]["series"]
    return {
        "dimension": series["dimension"],
        "max_length": series["max_length"],
        "totals": [int(c) for c in series["totals"]],
        "endpoints": {tuple(e["point"]): [int(c) for c in e["counts"]]
                      for e in series["endpoints"]},
        "oracle": oracles.recursive_endpoint_counts(SAW_DIM, ORACLE_NMAX),
    }


def _check_saw_shape(out: Outputs) -> list:
    bad = _exit_zero(out)
    x = out["extra"]
    shape = (x["dimension"], x["max_length"], len(x["totals"]))
    if shape != (SAW_DIM, SAW_NMAX, SAW_NMAX + 1):
        bad.append(f"series has d={x['dimension']}, N={x['max_length']}, "
                   f"{len(x['totals'])} totals")
    return bad


def _check_same_rounds(out: Outputs) -> list:
    digests = {r["digest"] for r in _runs(out)}
    return [] if len(digests) == 1 else [f"{len(digests)} different results for one input"]


def _check_closed_forms(out: Outputs) -> list:
    q = 2 * SAW_DIM
    expected = {1: q, 2: q * (q - 1), 3: q * (q - 1) ** 2,
                4: q * (q - 1) ** 3 - q * (q - 2)}
    c = out["extra"]["totals"]
    return [f"c_{n} = {c[n]}, closed form {v}" for n, v in expected.items() if c[n] != v]


def _check_endpoint_sums(out: Outputs) -> list:
    x = out["extra"]
    sums = [0] * (SAW_NMAX + 1)
    for counts in x["endpoints"].values():
        for n, c in enumerate(counts):
            sums[n] += c
    return [f"endpoint counts at n={n} sum to {s}, c_n = {c}"
            for n, (s, c) in enumerate(zip(sums, x["totals"])) if s != c]


def _check_endpoint_support(out: Outputs) -> list:
    bad = []
    for p, counts in out["extra"]["endpoints"].items():
        l1 = sum(abs(v) for v in p)
        for n, c in enumerate(counts):
            if c and (l1 > n or (n - l1) % 2):
                bad.append(f"{c} walks of length {n} end at {p}")
    return bad


def _orbit_size(p: tuple) -> int:
    """Number of distinct images of p under coordinate permutations and sign flips."""
    mags = sorted(abs(v) for v in p)
    perms = math.factorial(len(p))
    for _, group in itertools.groupby(mags):
        perms //= math.factorial(len(list(group)))
    return perms * 2 ** sum(1 for v in p if v)


def _check_symmetry(out: Outputs) -> list:
    orbits: dict = {}
    for p, counts in out["extra"]["endpoints"].items():
        orbits.setdefault(tuple(sorted(abs(v) for v in p)), []).append((p, counts))
    bad = []
    for key, members in orbits.items():
        if len(members) != _orbit_size(key):
            bad.append(f"orbit of {key} has {len(members)} of {_orbit_size(key)} points")
        if any(counts != members[0][1] for _, counts in members):
            bad.append(f"counts differ within the orbit of {key}")
    return bad


def _check_submultiplicative(out: Outputs) -> list:
    c = out["extra"]["totals"]
    return [f"c_{m + n} = {c[m + n]} > c_{m} c_{n}"
            for m in range(1, SAW_NMAX) for n in range(m, SAW_NMAX + 1 - m)
            if c[m + n] > c[m] * c[n]]


def _check_oracle(out: Outputs) -> list:
    x = out["extra"]
    bad = []
    for n, layer in enumerate(x["oracle"]):
        got = {p: counts[n] for p, counts in x["endpoints"].items() if counts[n]}
        if got != layer or x["totals"][n] != sum(layer.values()):
            bad.append(f"length {n} differs from the plain recursion")
    return bad


def _check_pinned(out: Outputs) -> list:
    c = out["extra"]["totals"]
    return [f"c_{n} = {c[n]}, pinned {v}" for n, v in PINNED_TOTALS.items() if c[n] != v]


E1 = (1,) + (0,) * (SAW_DIM - 1)


def _plant_total(n: int, value: Callable[[list], int]):
    def plant(out: Outputs) -> None:
        totals = out["extra"]["totals"]
        totals[n] = value(totals)
    return plant


def _plant_short_series(out: Outputs) -> None:
    out["extra"]["totals"].pop()


def _plant_odd_endpoint(out: Outputs) -> None:
    out["extra"]["endpoints"][E1][2] += 1


def _plant_mirror_move(out: Outputs) -> None:
    eps = out["extra"]["endpoints"]
    eps[E1][3] += 1
    eps[tuple(-v for v in E1)][3] -= 1


def _plant_endpoint_swap(out: Outputs) -> None:
    eps = out["extra"]["endpoints"]
    eps[E1][5] += 1
    eps[(1, 1, 1, 1, 1, 0)][5] -= 1


def _plant_odd_round(out: Outputs) -> None:
    out["rounds"].append(dict(out["rounds"][0], digest="planted"))


SAW_D6 = Workload(
    name="saw_d6",
    argv=_saw_argv,
    workers=1,
    reference_workers=None,
    keep_every_doc=False,
    checks={
        "shape": _check_saw_shape,
        "same_rounds": _check_same_rounds,
        "closed_forms": _check_closed_forms,
        "endpoint_sums": _check_endpoint_sums,
        "endpoint_support": _check_endpoint_support,
        "symmetry": _check_symmetry,
        "submultiplicative": _check_submultiplicative,
        "oracle": _check_oracle,
        "pinned": _check_pinned,
    },
    defects=[
        ("a series one length short", "shape", _plant_short_series),
        ("a round with another result", "same_rounds", _plant_odd_round),
        ("a wrong c_3", "closed_forms", _plant_total(3, lambda c: c[3] + 1)),
        ("a wrong c_6", "endpoint_sums", _plant_total(6, lambda c: c[6] + 1)),
        ("a 2-step walk ending next to the origin", "endpoint_support",
         _plant_odd_endpoint),
        ("a count moved to a mirror image", "symmetry", _plant_mirror_move),
        ("c_8 above c_4 squared", "submultiplicative",
         _plant_total(8, lambda c: c[4] ** 2 + 1)),
        ("a count moved between two endpoints at n=5", "oracle", _plant_endpoint_swap),
        ("a wrong c_7", "pinned", _plant_total(7, lambda c: c[7] + 12)),
    ],
    prepare=_saw_prepare,
)


# --- verify_suite: the seven verify checks with a 2-worker pool ---

VERIFY_CHECKS = ["depleted", "resolvent", "schur", "apriori", "drb", "ceiling", "decay"]
#: case counts andloc verify uses by default, per check: (detail key, value)
VERIFY_COUNTS = {
    "depleted": ("cases", 100),
    "resolvent": ("cases", 20),
    "schur": ("cases", 50),
    "apriori": ("b_per_grid", 100),
    "drb": ("environments", 10),
    "ceiling": ("regions", 4),
    "decay": ("distances", [1, 2, 3, 4]),
}


def _verify_argv(seed: int, workers: int) -> list:
    return ["verify", "--lambda", str(LAMBDA), "--seed", str(seed),
            "--workers", str(workers)]


def _checks_of(record: dict) -> list:
    return record["doc"]["result"]["checks"]


def _check_statuses(out: Outputs) -> list:
    bad = []
    for r in out["rounds"]:
        got = [(c["name"], c["status"]) for c in _checks_of(r)]
        if got != [(name, "pass") for name in VERIFY_CHECKS]:
            bad.append(f"seed {r['seed']}: checks {got}")
        if r["doc"]["result"]["all_passed"] is not True:
            bad.append(f"seed {r['seed']}: all_passed is not true")
    return bad


def _check_counts(out: Outputs) -> list:
    bad = []
    for r in out["rounds"]:
        for c in _checks_of(r):
            key, value = VERIFY_COUNTS[c["name"]]
            if c["detail"].get(key) != value:
                bad.append(f"seed {r['seed']}: {c['name']} {key} = "
                           f"{c['detail'].get(key)}, configured {value}")
        ceiling = next(c for c in _checks_of(r) if c["name"] == "ceiling")
        detail = ceiling["detail"]
        if len(detail["estimates"]) != 4 * 4 or detail["samples"] != 500:
            bad.append(f"seed {r['seed']}: ceiling ran {len(detail['estimates'])} "
                       f"estimates of {detail['samples']} samples")
    return bad


def _check_margins(out: Outputs) -> list:
    bad = []
    for r in out["rounds"]:
        ceiling = next(c for c in _checks_of(r) if c["name"] == "ceiling")
        for e in ceiling["detail"]["estimates"]:
            margin = e["ceiling"] - (e["mean"] - 3.0 * e["stderr"])
            if margin < 0.0 or e["margin"] < 0.0:
                bad.append(f"seed {r['seed']}: margin {margin} at distance {e['distance']}")
    return bad


def _plant_flipped_status(out: Outputs) -> None:
    _checks_of(out["rounds"][0])[-1]["status"] = "fail"


def _plant_missing_case(out: Outputs) -> None:
    _checks_of(out["rounds"][0])[0]["detail"]["cases"] -= 1


def _plant_negative_margin(out: Outputs) -> None:
    ceiling = next(c for c in _checks_of(out["rounds"][0]) if c["name"] == "ceiling")
    e = ceiling["detail"]["estimates"][-1]
    e["mean"] = e["ceiling"] + 4.0 * e["stderr"] + 1.0


def _plant_discrepancy_ulp(out: Outputs) -> None:
    detail = _checks_of(out["rounds"][0])[0]["detail"]
    detail["max_discrepancy"] = math.nextafter(detail["max_discrepancy"], math.inf)


VERIFY_SUITE = Workload(
    name="verify_suite",
    argv=_verify_argv,
    workers=2,
    reference_workers=1,
    keep_every_doc=True,
    checks={
        "exit": _exit_zero,
        "statuses": _check_statuses,
        "counts": _check_counts,
        "margins": _check_margins,
        "workers": _same_as_reference,
    },
    defects=[
        ("a non-zero exit code", "exit", _plant_exit),
        ("a flipped check status", "statuses", _plant_flipped_status),
        ("a missing identity case", "counts", _plant_missing_case),
        ("a mean above its walk ceiling", "margins", _plant_negative_margin),
        ("a discrepancy one ulp off", "workers", _plant_discrepancy_ulp),
    ],
)


WORKLOADS = {w.name: w for w in (MOMENT_BOX, SAW_D6, VERIFY_SUITE)}

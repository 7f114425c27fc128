"""Command-line front end: enumerations, threshold tables, Green's function
evaluations, and the verification suite, emitted as JSON/CSV artifacts.

Every artifact embeds the fully resolved configuration, package version,
seed, and the formulas behind any ceiling it reports, so a rerun with the
same config reproduces it byte-identically apart from the wallclock block.

Configuration precedence: built-in defaults < --config JSON file < explicit
flags.  Config-file keys are the flag names with _ for - ("z_real" or
"z-real", "lambda"); an unknown key or format exits 2.  A config-file value
is read as the text of its flag and converted by the flag's type, so a
value the flag would reject exits 2; null leaves the default, a JSON list
joins with ',' and a list of lists with ';' ([[1, 0], [0, 2]] is
"1,0;0,2").  A config run therefore echoes exactly what the equivalent
flags echo, and an artifact's config block fed back through --config
reruns it; a key the command does not read (dim, for critical) is echoed
and ignored.  Each setting's default, flag type and help are declared
once, in _SETTINGS, and each subcommand's flags in _COMMANDS: a new
setting goes there.

critical names its dimensions with one setting, --dims (the built-in
table's when unset); --mu bounds the one dimension that --dims then names.

verify reads one table, _CHECKS: per check its chunk tasks and the fold
of their measurements into a status.  One parallel.map_ordered call, the
run's only pool, runs the moment checks' one task, when ceiling or decay
runs, and the tasks of the other checks; the checks then run in table
order in this process, each folding its measurements in case order, so
artifacts are bit-identical for any --workers.  Each check's pass rule is
written once, in its fold; the library returns measurements only.  A
check's wallclock stage is its own time here plus the seconds of its
pooled tasks, wherever they ran; the moment task's seconds are the stage
moments.  At 2 workers the stages can sum to more than elapsed_seconds.

Exit codes: 0 success, 1 a bound check failed, 2 bad input (a non-finite
number included), 3 resource limits (a failed allocation included),
4 linear-solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from datetime import datetime, timezone
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import __version__, anderson, critical, moments, saw
from .parallel import map_ordered, pieces, resolve_workers
from .rng import substream, unit_open

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_SOLVER = 4

# per-use box halfwidths when --L is not given
_BOX_L = {"identity": 5, "conditional": 4, "moments": 8, "green": 6}


def _box_L(cfg: dict, use: str) -> int:
    return cfg["L"] if cfg["L"] is not None else _BOX_L[use]


def _series(cfg: dict) -> saw.WalkSeries:
    return saw.enumerate_walks(cfg["dim"], cfg["nmax"],
                               memory_budget=cfg["memory_budget"])


def _axis_pairs(dim: int, dists) -> list:
    """(d e_1, origin) for each distance d."""
    origin = (0,) * dim
    return [((d,) + (0,) * (dim - 1), origin) for d in dists]


def _ceilings(series: saw.WalkSeries, lam: float, pairs) -> list[float]:
    """The walk ceiling of each pair, all evaluated before any sampling, so
    CeilingUnavailableError costs no Monte Carlo."""
    return [moments.ceiling_value(series, lam, tuple(a - b for a, b in zip(x, y)))
            for x, y in pairs]


def _estimate_entry(e: moments.MomentEstimate, ceiling: Optional[float]) -> dict:
    """e's artifact entry with its ceiling, or none, and the ceiling check's
    measured number: margin = ceiling - (mean - 3 stderr), the spread 0
    without a stderr."""
    if ceiling is None:
        return e.to_json_dict() | {"ceiling": None, "ceiling_kind": "none",
                                   "margin": None}
    spread = 3.0 * e.stderr if e.stderr is not None else 0.0
    return e.to_json_dict() | {"ceiling": ceiling, "ceiling_kind": "saw_theorem",
                               "margin": ceiling - (e.mean - spread)}


def _parse_int_list(text: str) -> list[int]:
    """Accept '2..6', '2,4,6' or '3'; a repeat is dropped, first-seen order
    kept."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return list(dict.fromkeys(int(tok) for tok in text.split(",") if tok))


def _parse_point(text: str) -> tuple[int, ...]:
    """Accept '1,0'."""
    return tuple(int(v) for v in text.split(","))


def _parse_points(text: str) -> list[tuple[int, ...]]:
    """Accept '1,0;0,2'."""
    return [_parse_point(tok) for tok in text.split(";") if tok]


def _destination(out: Optional[str]):
    """The --out file, or stdout (left open) when out is unset."""
    return open(out, "w") if out else nullcontext(sys.stdout)


def _emit(text: str, out: Optional[str]) -> None:
    with _destination(out) as fh:
        fh.write(text)


def _emit_artifact(command: str, cfg: dict, result: dict, t0: float,
                   formulas: Optional[dict] = None,
                   stages: Optional[dict] = None,
                   slot: Optional[tuple[tuple[str, ...], Callable]] = None) -> None:
    """Write the JSON artifact, the text of json.dump(indent=2,
    sort_keys=True) plus a newline, to --out or stdout.  stages (name ->
    seconds) goes under wallclock, outside what a rerun reproduces.

    slot, when given, is (keys, write): keys is the path in result of an
    empty list, and write(fh, level) streams in its place the text that
    json would give the full list under a key at that indent level.  The
    envelope is encoded once, by json, and split at the slot's key line,
    which is found with its indentation: an encoded JSON string holds no
    raw newline, so no value, an --out path included, can imitate it."""
    doc = {
        "command": command,
        "config": {_name(k): v for k, v in cfg.items()},
        "versions": {"andloc": __version__},
        "seed": cfg.get("seed"),
        "result": result,
        "wallclock": {
            "utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": time.monotonic() - t0,
        },
    }
    if stages is not None:
        doc["wallclock"]["stages"] = stages
    if formulas:
        doc["formulas"] = formulas
    text = json.dumps(doc, indent=2, sort_keys=True)
    with _destination(cfg["out"]) as fh:
        if slot is None:
            fh.write(text)
        else:
            keys, write = slot
            level = len(keys) + 1  # result is a key of the document
            key = "\n" + "  " * level + json.dumps(keys[-1]) + ": "
            head, tail = text.split(key + "[]")
            fh.write(head + key)
            write(fh, level)
            fh.write(tail)
        fh.write("\n")


# --- subcommands ---


def cmd_saw(cfg: dict) -> int:
    t0 = time.monotonic()
    series = _series(cfg)
    if cfg["format"] == "csv":
        lines = ["n,c_n"] + [f"{n},{c}" for n, c in enumerate(series.totals)]
        _emit("\n".join(lines) + "\n", cfg["out"])
        return EXIT_OK
    bounds = saw.connective_upper_bounds(series)
    result = {
        "series": series.to_json_dict() | {"endpoints": []},
        "connective_upper_bounds": [[n, b] for n, b in bounds.pairs],
        "trivial_upper_bound": bounds.trivial,
    }
    _emit_artifact("saw", cfg, result, t0,
                   slot=(("series", "endpoints"), series.write_endpoints))
    return EXIT_OK


def cmd_critical(cfg: dict) -> int:
    t0 = time.monotonic()
    dims = (_parse_int_list(cfg["dims"]) if cfg["dims"] is not None
            else sorted(critical.DEFAULT_MU_UPPER))
    if not dims:
        raise ValueError(f"--dims {cfg['dims']!r} names no dimension")
    if cfg["mu"] is not None:
        if len(dims) != 1:
            raise ValueError("--mu bounds one dimension; name it alone with "
                             "--dims, e.g. --dims 3 --mu 4.7114")
        mus = {dims[0]: cfg["mu"]}
    else:
        missing = [d for d in dims if d not in critical.DEFAULT_MU_UPPER]
        if missing:
            raise ValueError(
                f"no built-in connective bound for dimension(s) {missing}; "
                "give one with --dims and its bound with --mu")
        mus = {d: critical.DEFAULT_MU_UPPER[d] for d in dims}
    reports = critical.table_one(mus)
    if cfg["format"] == "csv":
        _emit(critical.table_to_csv(reports), cfg["out"])
        return EXIT_OK
    result = {"reports": [r.to_json_dict() for r in reports]}
    _emit_artifact("critical", cfg, result, t0)
    return EXIT_OK


def cmd_green(cfg: dict) -> int:
    t0 = time.monotonic()
    if cfg["format"] == "csv":
        raise ValueError("green supports json output only")
    dim = cfg["dim"]
    L = _box_L(cfg, "green")
    deleted = _parse_points(cfg["deleted"]) if cfg["deleted"] else ()
    region = anderson.make_region(dim, L, deleted)
    sample = anderson.sample_disorder(region, cfg["seed"])
    z = complex(cfg["z_real"], cfg["z_imag"])
    x = _parse_point(cfg["x"]) if cfg["x"] else (1,) + (0,) * (dim - 1)
    y = _parse_point(cfg["y"]) if cfg["y"] else (0,) * dim
    for flag, p in (("--x", x), ("--y", y)):
        if len(p) != dim:
            raise ValueError(f"{flag} {','.join(map(str, p))} has {len(p)} "
                             f"coordinate(s); --dim is {dim}")
    ev = anderson.green(region, cfg["lambda_"], sample, z, x, y)
    result = {"sample": sample.to_json_dict(), "evaluation": ev.to_json_dict()}
    _emit_artifact("green", cfg, result, t0)
    return EXIT_OK


def cmd_moment(cfg: dict) -> int:
    t0 = time.monotonic()
    dim = cfg["dim"]
    L = _box_L(cfg, "moments")
    lam = cfg["lambda_"]
    z = complex(cfg["z_real"], cfg["z_imag"])
    s = cfg["s"] if cfg["s"] is not None else critical.s_crit(lam)
    dists = _parse_int_list(cfg["distances"])
    if any(d < 0 or d > L for d in dists):
        raise ValueError(f"distances must lie in [0, L={L}]")
    region = anderson.make_region(dim, L)
    pairs = _axis_pairs(dim, dists)
    ceilings = [None] * len(pairs)
    note = "ceiling attaches only at s = s_crit(lambda)"
    if lam > critical.E and s == critical.s_crit(lam):
        try:
            ceilings, note = _ceilings(_series(cfg), lam, pairs), None
        except moments.CeilingUnavailableError as exc:
            note = f"ceiling unavailable: {exc}"
    ests = moments.estimate_moments(region, lam, s, z, pairs, cfg["samples"],
                                    cfg["seed"], cfg["workers"])
    if cfg["format"] == "csv":
        _emit(moments.estimates_to_csv(ests, ceilings), cfg["out"])
        return EXIT_OK
    result = {"estimates": [_estimate_entry(e, c) for e, c in zip(ests, ceilings)],
              "note": note}
    _emit_artifact("moment", cfg, result, t0, formulas=moments.CEILING_FORMULAS)
    return EXIT_OK


# --- verification suite ---


def _random_site(region: anderson.Region, seed: int, tag: int) -> anderson.Point:
    return region.sites[int(unit_open(seed, (tag,)) * region.n_sites)]


def _identity_case(dim: int, L: int, seed: int, t: int):
    """Case t of the identity stream seed: (region, sample, x, y), or None.

    A pure function of its arguments, so a chunk of the stream builds only
    its own cases.  Regions are boxes with 0-2 random deletions, never every
    site; pairs keep l1 distance <= 2 so that both identity sides stay far
    above roundoff at any lambda.  A case without such a pair is None.
    """
    s0 = substream(seed, t)
    box = anderson.Region(dimension=dim, L=L)
    n_del = min(t % 3, box.n_sites - 1)
    deleted = []
    k = 0
    while len(deleted) < n_del:
        cand = _random_site(box, s0, 100 + k)
        k += 1
        if cand not in deleted:
            deleted.append(cand)
    region = anderson.make_region(dim, L, deleted)
    sample = anderson.sample_disorder(region, substream(s0, 1))
    x = _random_site(region, s0, 2)
    sites = np.argwhere(region.grid >= 0) - L  # region.sites, as an array
    dist = np.abs(sites - x).sum(axis=1)
    nearby = sites[(dist >= 1) & (dist <= 2)]
    if not len(nearby):
        return None
    y = tuple(nearby[int(unit_open(s0, (3,)) * len(nearby))].tolist())
    return region, sample, x, y


# Task functions.  A task is (function, args) and may run in a pool worker,
# so its function is a module-level function of this module (pickled by
# name) and looks the library up at call time: perfbench's traced runs
# rebind the library functions to wrappers that do not pickle.

def _depleted_gap(lam, z, region, sample, x, y) -> float:
    return anderson.verify_depleted_identity(region, lam, sample, z, x, y)


def _resolvent_gap(lam, z, region, sample, x, _) -> float:
    return anderson.verify_resolvent_expansion(region, lam, sample, z, x)


def _schur_gap(lam, z, region, sample, x, _) -> float:
    return anderson.verify_schur_diagonal(region, lam, sample, z, x)


def _identity_chunk(measure, lam, z, dim: int, L: int, seed: int,
                    ts: range) -> list[float]:
    """measure(lam, z, *case), a relative discrepancy, for each case among
    the cases ts of identity stream seed."""
    cases = (_identity_case(dim, L, seed, t) for t in ts)
    return [measure(lam, z, *case) for case in cases if case is not None]


def _apriori_chunk(dim: int, n_b: int, seed: int, grids: list) -> list:
    """Per (s, lambda) grid of n_b values of B: the largest I / bound, the
    smallest I / (lambda^2/3 + |B|^2)^(-s/2) (Jensen's lower bound), and
    |I(0) / bound - 1|."""
    out = []
    for s, lam in grids:
        bs = np.array(moments.random_b_disc(dim, lam, n_b, seed))
        bound = critical.gamma_big(s, lam)
        vals = moments.apriori_integral(lam, s, bs)
        lower = (lam**2 / 3.0 + np.abs(bs) ** 2) ** (-s / 2.0)
        out.append((float(np.max(vals / bound)), float(np.min(vals / lower)),
                    abs(moments.apriori_integral(lam, s, 0j) / bound - 1.0)))
    return out


def _drb_chunk(*args) -> list:
    """The conditional bound's sides in a range of environments."""
    return moments.check_drb_conditional(*args)


def _moment_task(cfg: dict, pairs: list, ceiling: bool, decay: bool) -> tuple:
    """(series, ceilings, regions, estimates), one task of verify's pool, so
    sampled on one worker: the walk series if ceiling runs or decay has no
    --mu, the ceilings or the error that skips ceiling, then at s_crit(lambda)
    the region family if the ceilings exist, else the full box if decay runs.
    The full box is first, so the first len(pairs) estimates are decay's."""
    dim, lam, L = cfg["dim"], cfg["lambda_"], _box_L(cfg, "moments")
    series = _series(cfg) if ceiling or cfg["mu"] is None else None
    ceilings, regions, ests = None, [], []
    if ceiling:
        try:
            ceilings = _ceilings(series, lam, pairs)
            regions = moments.default_region_family(
                dim, L, keep=[p for pr in pairs for p in pr],
                seed=substream(cfg["seed"], 17))
        except moments.CeilingUnavailableError as exc:
            ceilings = exc
    if decay and not regions:
        regions = [anderson.Region(dimension=dim, L=L)]
    if regions:
        ests = moments.estimate_moments(
            regions, lam, critical.s_crit(lam), complex(cfg["z_real"], cfg["z_imag"]),
            pairs, cfg["samples"], substream(cfg["seed"], 16), workers=1)
    return series, ceilings, len(regions), ests


def _run_task(task) -> tuple[bool, object, float]:
    """(True, fn(*args), seconds), or (False, the exception it raised,
    seconds): the error is raised again where a check reads the result."""
    fn, args = task
    t0 = time.monotonic()
    try:
        ok, value = True, fn(*args)
    except Exception as exc:
        ok, value = False, exc
    return ok, value, time.monotonic() - t0


def _values(outcomes: list) -> list:
    """The values of _run_task outcomes in task order.  A task that raised
    raises here, where its check reads it, so errors surface in check order."""
    for ok, value, _ in outcomes:
        if not ok:
            raise value
    return [value for _, value, _ in outcomes]


def _identity_tasks(run: _VerifyRun, measure, tag: int, trials: int,
                    L: int) -> list:
    seed = substream(run.seed, tag)
    return [(_identity_chunk, (measure, run.lam, run.z, run.dim, L, seed, ts))
            for ts in pieces(run.trials(trials), run.workers)]


def _resolvent_L(cfg: dict) -> int:
    # the expansion check solves every column of two banded factors,
    # O(n^2 kl); shrink the box until it fits 500 sites
    L = _box_L(cfg, "identity")
    while L > 1 and (2 * L + 1) ** cfg["dim"] > 500:
        L -= 1
    return L


#: the (s, lambda) grids of the apriori check
_APRIORI_GRIDS = [(s, lam) for s in (0.3, 0.5, 0.7, 0.9)
                  for lam in (10.0, 30.0, 100.0)]


def _apriori_tasks(run: _VerifyRun) -> list:
    n_b = run.trials(100)
    if n_b == 0:  # no case: the check skips
        return []
    seed = substream(run.seed, 14)
    return [(_apriori_chunk, (run.dim, n_b, seed, [_APRIORI_GRIDS[i] for i in ts]))
            for ts in pieces(len(_APRIORI_GRIDS), run.workers)]


def _drb_tasks(run: _VerifyRun) -> list:
    cfg, dim = run.cfg, run.dim
    if cfg["n_env"] < 1:
        raise ValueError(f"n_env must be >= 1, got {cfg['n_env']}")
    region = anderson.Region(dimension=dim, L=_box_L(cfg, "conditional"))
    s_val = cfg["s"] if cfg["s"] is not None else 0.7
    x = (0,) * dim
    y = (1, 1) + (0,) * (dim - 2) if dim >= 2 else (1,)
    if y not in region:  # no case: the check skips
        return []
    return [(_drb_chunk, (region, run.lam, s_val, run.z, x, y, envs,
                          substream(run.seed, 15)))
            for envs in pieces(cfg["n_env"], run.workers)]


class _VerifyRun:
    """The inputs one verify run's checks share."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.dim = cfg["dim"]
        self.lam = cfg["lambda_"]
        self.z = complex(cfg["z_real"], cfg["z_imag"])
        self.seed = cfg["seed"]
        self.workers = cfg["workers"]
        if cfg["trials"] is not None and cfg["trials"] < 0:
            raise ValueError(f"trials must be >= 0, got {cfg['trials']}")

    def trials(self, default: int) -> int:
        return self.cfg["trials"] if self.cfg["trials"] is not None else default

    @cached_property
    def pairs(self) -> list:
        """Axis pairs of the moment checks, distances clipped to the box."""
        L = _box_L(self.cfg, "moments")
        dists = _parse_int_list(self.cfg["distances"])
        if any(d < 0 for d in dists):
            raise ValueError(f"distances must be >= 0, got {min(dists)}")
        return _axis_pairs(self.dim, [d for d in dists if d <= L])


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _moment_skip(run: _VerifyRun, name: str) -> Optional[tuple[str, dict]]:
    """The skip of moment check name, ceiling or decay, or None: s_crit(lambda)
    must exist, and the box must hold one distance (ceiling) or three (decay)."""
    if run.lam <= math.e:
        return "skipped", {"reason": f"criterion not met: lambda = {run.lam} <= e"}
    if name == "ceiling" and not run.pairs:
        L = _box_L(run.cfg, "moments")
        return "skipped", {"reason": f"no distance lies inside the box (L = {L})"}
    if name == "decay" and len(run.pairs) < 3:
        return "skipped", {"reason": "need >= 3 distances"}
    return None


def _identity_check(run: _VerifyRun, gaps: list) -> tuple[str, dict]:
    """Pass iff every case of the check's identity stream measured a
    discrepancy below tol; skipped when the stream gave no case."""
    if not gaps:
        return "skipped", {"reason": "no case ran: trials is 0, or no two sites "
                                     "of the box lie within l1 distance 2"}
    tol, worst = 1e-9, max(gaps)
    return _status(worst < tol), {
        "cases": len(gaps), "max_discrepancy": worst, "tolerance": tol}


def _check_apriori(run: _VerifyRun, grids: list) -> tuple[str, dict]:
    """The a priori integral I(B) on a B grid per (s, lambda): I / bound at
    most 1 + tol, I / (lambda^2/3 + |B|^2)^(-s/2) (Jensen's lower bound)
    at least 1 - tol, and I(0) / bound within sat_tol of 1."""
    if not grids:
        return "skipped", {"reason": "no case ran: trials is 0"}
    tol, sat_tol = 1e-8, 1e-10
    ratios, lowers, sat_errs = zip(*grids)
    max_ratio, min_lower, sat_err = max(ratios), min(lowers), max(sat_errs)
    ok = max_ratio <= 1.0 + tol and min_lower >= 1.0 - tol and sat_err <= sat_tol
    return _status(ok), {
        "b_per_grid": run.trials(100), "max_ratio": max_ratio,
        "min_lower_ratio": min_lower, "tolerance": tol,
        "saturation_error": sat_err, "saturation_tolerance": sat_tol}


def _check_drb(run: _VerifyRun, sides: list) -> tuple[str, dict]:
    """Per environment, the quadrature left side at most the right side plus
    tol, and within a relative identity_tol of the left side that the
    depletion and Schur identities give (both sides integrate on the
    a priori rule); skipped when the box does not hold the pair."""
    if not sides:
        L = _box_L(run.cfg, "conditional")
        return "skipped", {"reason": f"no case ran: y lies outside the box (L = {L})"}
    tol, identity_tol = 1e-6, 1e-9
    margin = min(rhs - lhs for lhs, rhs, _ in sides)
    gap = max(abs(lhs - by_identity) / max(lhs, by_identity)
              if lhs != by_identity else 0.0 for lhs, _, by_identity in sides)
    return _status(margin >= -tol and gap <= identity_tol), {
        "environments": len(sides), "min_margin": margin, "tolerance": tol,
        "max_identity_gap": gap, "identity_tolerance": identity_tol}


def _check_ceiling(run: _VerifyRun, work: Optional[tuple]) -> tuple[str, dict]:
    """Pass iff every estimate of the region family at s_crit(lambda) has
    margin >= 0: its mean - 3 stderr at most its walk ceiling.  work is the
    moment task's result, None when the task did not run."""
    skip = _moment_skip(run, "ceiling")
    if skip:
        return skip
    _, ceilings, regions, ests = work
    if isinstance(ceilings, moments.CeilingUnavailableError):
        return "skipped", {"reason": f"criterion not met: {ceilings}"}
    entries = [_estimate_entry(e, c) for e, c in zip(ests, ceilings * regions)]
    return _status(all(e["margin"] >= 0.0 for e in entries)), {
        "regions": regions, "samples": run.cfg["samples"], "estimates": entries,
        "max_cancellation": max((e.cancellation for e in ests
                                 if e.cancellation is not None), default=None)}


def _check_decay(run: _VerifyRun, work: Optional[tuple]) -> tuple[str, dict]:
    """Pass iff the fitted decay is at least as fast as the proved mass,
    within two standard errors of the fitted rate; work as for ceiling."""
    skip = _moment_skip(run, "decay")
    if skip:
        return skip
    series, _, _, ests = work
    mu_hat = (run.cfg["mu"] if run.cfg["mu"] is not None
              else saw.connective_upper_bounds(series).best)
    fit = moments.fit_decay(ests[:len(run.pairs)], run.lam, mu_hat, run.cfg["eps"])
    dominates = fit.fitted_rate >= fit.reference_rate - 2.0 * fit.rate_stderr
    return _status(dominates), fit.to_json_dict() | {
        "dominates_reference": dominates, "mu_upper": mu_hat}


#: the verification suite in run order, --only selecting from its names:
#: name -> (tasks, fold).  tasks(run) lists the check's chunk tasks for
#: run_verify's pool, each case of an identity stream, B grid or
#: environment in exactly one, each task returning one measurement per
#: case.  fold(run, measurements) gives (status, detail).  ceiling and
#: decay list no tasks: both fold the result of one shared task,
#: _moment_task, whose seconds are the stage moments.
_CHECKS = {
    "depleted": (lambda run: _identity_tasks(run, _depleted_gap, 11, 100,
                                             _box_L(run.cfg, "identity")),
                 _identity_check),
    "resolvent": (lambda run: _identity_tasks(run, _resolvent_gap, 12, 20,
                                              _resolvent_L(run.cfg)),
                  _identity_check),
    "schur": (lambda run: _identity_tasks(run, _schur_gap, 13, 50,
                                          _box_L(run.cfg, "identity")),
              _identity_check),
    "apriori": (_apriori_tasks, _check_apriori),
    "drb": (_drb_tasks, _check_drb),
    "ceiling": (None, _check_ceiling),
    "decay": (None, _check_decay),
}


def run_verify(cfg: dict) -> tuple[dict, dict]:
    """The selected checks' result, and the seconds of each stage: a check's
    own time here plus that of its pooled tasks, wherever they ran, and
    moments, the moment task's, when it ran.  The pool runs first; each
    check then folds its measurements once."""
    names = list(_CHECKS)
    if cfg["only"] is not None:
        only = {tok.strip() for tok in cfg["only"].split(",") if tok.strip()}
        if not only:
            raise ValueError("--only names no check")
        bad = only - _CHECKS.keys()
        if bad:
            raise ValueError(f"unknown checks for --only: {sorted(bad)}")
        names = [name for name in names if name in only]
    run = _VerifyRun(cfg)
    # one map_ordered call: the moment task first, as the longest, when
    # ceiling or decay runs and does not skip, then the other checks' tasks
    runs = [name in names and _moment_skip(run, name) is None
            for name in ("ceiling", "decay")]
    jobs = ([("moments", [(_moment_task, (cfg, run.pairs, *runs))])]
            if any(runs) else [])
    jobs += [(name, _CHECKS[name][0](run)) for name in names
             if _CHECKS[name][0] is not None]
    tasks = [(job, task) for job, job_tasks in jobs for task in job_tasks]
    pooled = {}  # job -> the _run_task outcomes of its tasks, in task order
    for (job, _), outcome in zip(tasks, map_ordered(
            _run_task, [task for _, task in tasks], run.workers)):
        pooled.setdefault(job, []).append(outcome)
    stages = {job: sum(seconds for _, _, seconds in outcomes)
              for job, outcomes in pooled.items()}
    checks = []
    for name in names:
        t0 = time.monotonic()
        if _CHECKS[name][0] is None:  # ceiling or decay
            measured = _values(pooled["moments"])[0] if "moments" in pooled else None
        else:
            measured = [case for chunk in _values(pooled.get(name, []))
                        for case in chunk]
        status, detail = _CHECKS[name][1](run, measured)
        stages[name] = stages.get(name, 0.0) + time.monotonic() - t0
        checks.append({"name": name, "status": status, "detail": detail})
    return {"checks": checks,
            "all_passed": all(c["status"] != "fail" for c in checks)}, stages


def cmd_verify(cfg: dict) -> int:
    t0 = time.monotonic()
    if cfg["format"] == "csv":
        raise ValueError("verify supports json output only")
    result, stages = run_verify(cfg)
    _emit_artifact("verify", cfg, result, t0, formulas=moments.CEILING_FORMULAS,
                   stages=stages)
    return EXIT_OK if result["all_passed"] else EXIT_BOUND_FAILED


# --- settings and subcommands ---

#: key -> (default, flag type, help); the key's flag and config name follow
#: from _name, and the default applies when neither a flag nor --config sets it
_SETTINGS = {
    "format": ("json", str, "json or csv"),
    "out": (None, str, "output path (stdout when omitted)"),
    "seed": (0, int, None),
    "workers": (None, int, "worker processes"),
    "dim": (2, int, None),
    "dims": (None, str, "dimensions, e.g. 2..6 or 3 (the built-in table when unset)"),
    "nmax": (None, int, "walk length (a per-dimension default when unset)"),
    "memory_budget": (saw.DEFAULT_MEMORY_BUDGET, int, None),
    "L": (None, int, "box halfwidth (per-use defaults when unset)"),
    "lambda_": (30.0, float, None),
    "s": (None, float, "moment exponent (a per-command default when unset)"),
    "z_real": (0.0, float, None),
    "z_imag": (0.01, float, None),
    "x": (None, str, "site, e.g. 1,0"),
    "y": (None, str, "site, e.g. 0,0"),
    "deleted": (None, str, "deleted sites, e.g. 1,0;0,2"),
    "samples": (500, int, None),
    "distances": ("1..4", str, "e.g. 1..5 or 1,3,5"),
    "eps": (0.01, float, None),
    "mu": (None, float, "connective-constant upper bound"),
    "trials": (None, int, None),
    "n_env": (10, int, None),
    "only": (None, str, "comma list of checks: " + ",".join(_CHECKS)),
}

#: every subcommand takes --config and these flags before its own
_COMMON = ("format", "out", "seed", "workers")

#: name -> (function, help, the settings it takes as flags beyond _COMMON)
_COMMANDS = {
    "saw": (cmd_saw, "enumerate self-avoiding walks exactly",
            ("dim", "nmax", "memory_budget")),
    "critical": (cmd_critical, "solve the critical-disorder table",
                 ("dims", "mu")),
    "green": (cmd_green, "evaluate one Green's function entry",
              ("dim", "L", "lambda_", "z_real", "z_imag", "x", "y", "deleted")),
    "moment": (cmd_moment, "Monte Carlo fractional moments along an axis",
               ("dim", "L", "lambda_", "s", "z_real", "z_imag", "samples",
                "distances", "nmax")),
    "verify": (cmd_verify, "run the verification suite",
               ("dim", "L", "lambda_", "s", "z_real", "z_imag", "samples", "eps",
                "mu", "trials", "nmax", "n_env", "only")),
}


def _name(key: str) -> str:
    """The user-facing name of a setting: lambda_ -> lambda."""
    return key.rstrip("_")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="andloc",
        description="Walk counts, critical disorder thresholds, and "
                    "fractional-moment checks for the Anderson model.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (_, summary, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in _COMMON + keys:
            _, kind, text = _SETTINGS[key]
            p.add_argument("--" + _name(key).replace("_", "-"), dest=key,
                           type=kind, help=text)
    return top


def _flag_text(value) -> str:
    """A config-file value as the text its flag would take: a JSON list joins
    with ',', a list of lists with ';' ([[1, 0], [0, 2]] -> '1,0;0,2')."""
    if isinstance(value, list):
        sep = ";" if any(isinstance(v, list) for v in value) else ","
        return sep.join(_flag_text(v) for v in value)
    return str(value)


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, echoed into artifacts."""
    cfg = {key: default for key, (default, _, _) in _SETTINGS.items()}
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        names = {n: key for key in _SETTINGS for n in (key, _name(key))}
        for name, val in file_cfg.items():
            key = names.get(name.replace("-", "_"))
            if key is None:
                raise ValueError(f"unknown config key {name!r}")
            if val is None:  # null leaves the default
                continue
            kind, text = _SETTINGS[key][1], _flag_text(val)
            try:
                val = kind(text)
            except ValueError:
                raise ValueError(f"config key {name!r}: {text!r} is not "
                                 f"a valid {kind.__name__}") from None
            cfg[key] = val
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, (_, kind, _) in _SETTINGS.items():
        if kind is float and cfg[key] is not None and not math.isfinite(cfg[key]):
            raise ValueError(f"{_name(key)} must be finite, got {cfg[key]}")
    if cfg["format"] not in ("json", "csv"):
        raise ValueError(f"unknown format {cfg['format']!r}; use json or csv")
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        cfg["workers"] = resolve_workers(cfg["workers"])
        return _COMMANDS[args.command][0](cfg)
    except (saw.BudgetExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except anderson.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError, OSError, critical.NoRootError,
            moments.InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

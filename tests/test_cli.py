"""Command-line interface: artifacts, formats, config merging, exit codes."""

import argparse
import hashlib
import itertools
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import andloc
from andloc import anderson, cli, critical, moments, saw
from andloc import parallel
from andloc.rng import site_uniform, substream, unit_open

import oracles

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_main(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(args, capsys):
    code, out, err = run_main(args, capsys)
    assert code == 0, err
    return json.loads(out)


def test_console_script_installed():
    # the declared entry point, run through the wrapper setuptools installs
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "andloc" in scripts
    module, attr = scripts["andloc"].split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == andloc.__version__


@pytest.mark.skipif(shutil.which("andloc") is None,
                    reason="andloc executable not on PATH (pip install -e .)")
def test_console_script_on_path():
    proc = subprocess.run(["andloc", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == andloc.__version__


def _traced_layers(argv):
    """Run andloc with argv through perfbench/runner.py --trace 1 against
    src/, and return the layer metrics of its last JSON line."""
    root = PYPROJECT.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "runner.py"), "--trace", "1",
         "--", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["exit"] == 0
    return doc["layers"]


def test_perfbench_trace_installs_against_src(tmp_path):
    # perfbench's traced rounds rebind andloc names by string; a renamed one
    # fails here instead of in the next traced benchmark run
    layers = _traced_layers(["verify", "--only", "depleted,schur", "--trials", "2",
                             "--L", "2", "--out", str(tmp_path / "verify.json")])
    assert layers["anderson.ResolventColumns.calls"] > 0
    assert layers["anderson.splu.calls"] > 0


def test_perfbench_trace_counts_one_factorization_per_sample(tmp_path):
    # the Monte Carlo factors each sample once with the banded LU and never
    # reaches the sparse LU
    layers = _traced_layers(["moment", "--samples", "7", "--L", "3",
                             "--distances", "0..3",
                             "--out", str(tmp_path / "moment.json")])
    assert layers["anderson.ResolventColumns.calls"] == 7
    assert layers["anderson.splu.calls"] == 0


def test_perfbench_trace_counts_two_factorizations_per_ceiling_sample(tmp_path):
    # of the ceiling family's four regions the full box and the half box are
    # factored; the two boxes minus one site derive from the full box's factor
    out = tmp_path / "verify.json"
    layers = _traced_layers(["verify", "--only", "ceiling", "--samples", "7",
                             "--L", "3", "--nmax", "8", "--out", str(out)])
    assert layers["anderson.ResolventColumns.calls"] == 14
    (check,) = json.loads(out.read_text())["result"]["checks"]
    assert check["status"] == "pass"
    assert check["detail"]["regions"] == 4
    assert 0.0 < check["detail"]["max_cancellation"] < float("inf")


@pytest.mark.parametrize("workload", ["verify_suite", "moment_box"])
def test_perfbench_verify_suite_gate_passes(workload):
    # the benchmark's own checks of the workload in one round, with its
    # planted-defect self-test: verify_suite's statuses, case counts,
    # margins and 1-worker reference, and moment_box's a priori and walk
    # ceilings, dense-inverse oracle and 2-worker reference; a change they
    # would reject fails here first
    root = PYPROJECT.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0"],
        capture_output=True, text=True, cwd=root)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True, proc.stderr
    assert doc["failed"] == 0, proc.stderr


def test_saw_csv_header_exact(capsys):
    code, out, _ = run_main(["saw", "--dim", "2", "--nmax", "5",
                             "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,c_n"
    assert lines[1] == "0,1"
    assert lines[-1] == "5,284"


def test_saw_nmax_zero_writes_json(capsys):
    doc = run_json(["saw", "--dim", "2", "--nmax", "0"], capsys)
    assert doc["result"]["series"]["totals"] == ["1"]
    assert doc["result"]["connective_upper_bounds"] == []
    assert doc["result"]["trivial_upper_bound"] == 3.0


def test_verify_decay_nmax_zero_exits_2(capsys):
    code, _, err = run_main(["verify", "--only", "decay", "--nmax", "0"], capsys)
    assert code == 2
    assert "length-1" in err


# SHA-256 of the saw artifact up to its "wallclock" key: artifacts stay
# byte-identical across changes to how the series is computed or stored
SAW_ARTIFACT_SHA256 = {
    (3, 6): "baa85536ab69e9bb6ff0cbc2d013f5aa72122f38176ac529222d21c9d4574747",
    (6, 4): "4571dd74b84efb2c618245c8f2745de3a5e4025872f64ef974c05b48f240d53c",
    (6, 8): "82678afb540999e3f67e2da93da9a42fea6d254ff930db9b43578d466452836b",
}


@pytest.mark.parametrize("d, n_max", sorted(SAW_ARTIFACT_SHA256))
def test_saw_artifact_bytes_pinned(capsys, d, n_max):
    code, out, _ = run_main(["saw", "--dim", str(d), "--nmax", str(n_max)],
                            capsys)
    assert code == 0
    head = out[:out.index('"wallclock"')].encode()
    assert hashlib.sha256(head).hexdigest() == SAW_ARTIFACT_SHA256[d, n_max]


# the last --out holds the splice line of the endpoint list, raw newline
# included: the splice must still find the one true key line
@pytest.mark.parametrize("out", [None, "saw.json", '\n      "endpoints": []'])
@pytest.mark.parametrize("d, n_max", [(1, 0), (1, 6), (2, 0), (2, 8), (3, 5),
                                      (4, 5), (6, 4), (7, 2)])
def test_saw_artifact_matches_per_point_oracle(capsys, tmp_path, d, n_max, out):
    args = ["saw", "--dim", str(d), "--nmax", str(n_max)]
    if out is not None:
        args += ["--out", str(tmp_path / out)]
    code, text, _ = run_main(args, capsys)
    assert code == 0
    if out is not None:
        assert text == ""
        text = (tmp_path / out).read_text()
    doc = json.loads(text)
    doc["result"]["series"] = oracles.saw_series_document(d, n_max)
    expect = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    got = text[:text.index('"wallclock"')].split("\n")
    want = expect[:expect.index('"wallclock"')].split("\n")
    # a plain == would have pytest diff some 10^4 lines
    same = got == want
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    assert same, f"line {first + 1}: {got[first:first + 1]} != {want[first:first + 1]}"


def test_saw_artifact_envelope(capsys):
    doc = run_json(["saw", "--dim", "2", "--nmax", "4"], capsys)
    assert set(doc) >= {"command", "config", "versions", "seed", "result",
                        "wallclock"}
    assert doc["command"] == "saw"
    assert doc["config"]["dim"] == 2
    assert doc["config"]["nmax"] == 4
    assert doc["result"]["series"]["totals"] == ["1", "4", "12", "36", "100"]
    assert doc["result"]["trivial_upper_bound"] == 3.0
    assert "lambda" in doc["config"] and "lambda_" not in doc["config"]


def test_artifact_rerun_identical_minus_wallclock(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = cli.main(["moment", "--dim", "2", "--L", "3", "--samples", "6",
                         "--distances", "1,2", "--nmax", "6",
                         "--out", str(p)])
        assert code == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        doc.pop("wallclock")
        doc["config"].pop("out")
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_critical_default_full_table_csv(capsys):
    code, out, _ = run_main(["critical", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "quantity,2,3,4,5,6"
    rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
    assert [float(v) for v in rows["lambda_and"]] == [22.8, 50.3, 81.5, 114.1, 148.0]
    assert [float(v) for v in rows["lambda_ag"]] == [100.2, 167.0, 238.1, 312.3, 389.1]


def test_critical_single_dim(capsys):
    doc = run_json(["critical", "--dims", "4"], capsys)
    reports = doc["result"]["reports"]
    assert len(reports) == 1
    assert reports[0]["dimension"] == 4
    assert reports[0]["lambda_and_rounded"] == 81.5


def test_critical_custom_mu(capsys):
    doc = run_json(["critical", "--dims", "3", "--mu", "4.7114"], capsys)
    rep = doc["result"]["reports"][0]
    assert rep["mu_upper"] == 4.7114
    assert rep["lambda_and"] == pytest.approx(50.13563175903109, rel=1e-12)


def test_critical_mu_with_dims_exits_2(capsys):
    code, out, err = run_main(["critical", "--dims", "3..4", "--mu", "4.7"],
                              capsys)
    assert code == 2
    assert out == ""
    assert "--dims" in err


def test_critical_unknown_dim_exits_2(capsys):
    code, _, err = run_main(["critical", "--dims", "7..9"], capsys)
    assert code == 2
    assert "connective" in err


def test_critical_takes_no_dim_flag():
    # --dims names critical's dimensions; --dim is not one of its flags
    with pytest.raises(SystemExit) as exc:
        cli.main(["critical", "--dim", "4"])
    assert exc.value.code == 2


def test_critical_mu_for_a_dimension_without_builtin_bound(capsys):
    doc = run_json(["critical", "--dims", "7", "--mu", "12"], capsys)
    (rep,) = doc["result"]["reports"]
    assert rep["dimension"] == 7 and rep["mu_upper"] == 12.0
    assert rep["lambda_and"] == critical.solve_fixed_point(12.0 * math.e)


@pytest.mark.parametrize("mu", [1e20, 1e50, 1e200])
def test_critical_huge_mu_solves(capsys, mu):
    # Newton from a^2 cancels (a > 8e17) or overflows (a > 1.3e154) here
    doc = run_json(["critical", "--dims", "2", "--mu", repr(mu)], capsys)
    lam, a = doc["result"]["reports"][0]["lambda_and"], mu * math.e
    assert lam > a
    assert abs(lam - a * math.log(lam)) <= 4 * math.ulp(lam)


@pytest.mark.parametrize("argv", [
    ["saw", "--dim", "2", "--nmax", "6"],
    ["critical"],
    ["critical", "--dims", "4"],
    ["critical", "--dims", "3..4"],
    ["critical", "--dims", "3", "--mu", "4.7114"],
    ["green", "--L", "3", "--deleted", "1,0;0,2", "--x", "2,0"],
    ["moment", "--L", "3", "--samples", "20", "--distances", "0..2"],
    ["verify", "--only", "depleted,schur,apriori", "--trials", "3", "--L", "3"],
], ids=["saw", "critical", "critical-dims-4", "critical-dims-3..4",
        "critical-mu", "green", "moment", "verify"])
def test_artifact_config_reruns_its_result(tmp_path, capsys, argv):
    # an artifact is a certificate only if its echoed config reproduces it
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert cli.main(argv + ["--out", str(first)]) == 0
    doc = json.loads(first.read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc["config"]))
    assert cli.main([argv[0], "--config", str(cfg), "--out", str(again)]) == 0
    rerun = json.loads(again.read_text())
    assert rerun["result"] == doc["result"]
    assert rerun["config"] == doc["config"] | {"out": str(again)}


def _readme_commands() -> list[str]:
    """The andloc lines of README.md's command-line block."""
    text = (PYPROJECT.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("andloc ")]


def test_readme_command_lines_run(tmp_path, capsys):
    lines = _readme_commands()
    assert len(lines) >= 7
    for i, line in enumerate(lines):
        argv = shlex.split(line)[1:] + ["--out", str(tmp_path / f"{i}.out")]
        assert cli.main(argv) == 0, line


def test_green_matches_library(capsys):
    doc = run_json(["green", "--dim", "2", "--L", "3", "--seed", "5",
                    "--x", "2,0", "--y", "0,0", "--deleted", "1,1"], capsys)
    region = anderson.make_region(2, 3, [(1, 1)])
    sample = anderson.sample_disorder(region, 5)
    ev = anderson.green(region, 30.0, sample, 0.01j, (2, 0), (0, 0))
    got = doc["result"]["evaluation"]["value"]
    assert complex(got["re"], got["im"]) == ev.value
    assert doc["result"]["evaluation"]["residual"] < 1e-10
    assert doc["result"]["sample"]["deleted"] == [[1, 1]]
    assert doc["result"]["sample"]["seed"] == 5


def test_green_singular_exits_4(capsys):
    z = 30.0 * site_uniform(0, (0,))
    code, _, err = run_main(["green", "--dim", "1", "--L", "0", "--x", "0",
                             "--y", "0", "--z-real", repr(z),
                             "--z-imag", "0"], capsys)
    assert code == 4
    assert "singular" in err.lower()


def _allocation_fails(*args):
    raise MemoryError  # what numpy raises for a band that does not fit


def test_green_failed_allocation_exits_3(capsys, monkeypatch):
    # green --dim 5 at the default L = 6 asks for a 474 GiB band
    monkeypatch.setattr(anderson.ResolventColumns, "__init__", _allocation_fails)
    code, out, err = run_main(["green"], capsys)
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("args, flag", [
    (["--x", "1"], "--x"),
    (["--y", "0,0,0"], "--y"),
    (["--dim", "3", "--x", "1,0,0", "--y", "0,0"], "--y"),
], ids=["x-short", "y-long", "y-short-3d"])
def test_green_point_of_wrong_arity_exits_2(capsys, args, flag):
    code, out, err = run_main(["green"] + args, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} ")


def test_moment_csv_and_ceiling(capsys):
    args = ["moment", "--dim", "2", "--L", "4", "--samples", "12",
            "--distances", "1..3", "--nmax", "8"]
    code, out, _ = run_main(args + ["--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "distance,mean,stderr,ceiling"
    assert len(lines) == 4
    # ceilings attach at the default s = s_crit(lambda)
    assert all(ln.split(",")[3] not in ("", "None") for ln in lines[1:])
    doc = run_json(args, capsys)
    assert doc["result"]["note"] is None
    ests = doc["result"]["estimates"]
    assert [repr(e["ceiling"]) for e in ests] == \
        [ln.split(",")[3] for ln in lines[1:]]
    for e in ests:
        assert e["ceiling_kind"] == "saw_theorem"
        assert e["margin"] == e["ceiling"] - (e["mean"] - 3.0 * e["stderr"])
        assert e["margin"] >= 0.0


def test_moment_repeated_distance_emits_once(capsys):
    # repeats drop, first-seen order kept: one estimate per distance
    code, out, _ = run_main(["moment", "--distances", "2,1,2,1", "--samples",
                             "5", "--L", "3", "--s", "0.5", "--format", "csv"],
                            capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == \
        ["2", "1"]


def test_moment_custom_s_has_no_ceiling(capsys):
    # lambda = 2 < e has no s_crit; a given --s still needs none
    for lam in ("30", "2"):
        doc = run_json(["moment", "--dim", "2", "--L", "3", "--samples", "6",
                        "--lambda", lam, "--s", "0.5", "--distances", "1,2",
                        "--nmax", "6"], capsys)
        ests = doc["result"]["estimates"]
        assert all(e["ceiling"] is None and e["ceiling_kind"] == "none"
                   and e["margin"] is None for e in ests)
        assert "s_crit" in doc["result"]["note"]
        assert doc["formulas"] == {
            k: v for k, v in cli.moments.CEILING_FORMULAS.items()}


def test_moment_ceiling_unavailable_before_sampling(capsys, monkeypatch):
    # gamma(23) * c_8^(1/8) > 1: the first ceiling raises before any Monte
    # Carlo, and the one sampling call then runs without ceilings
    events = []
    ceiling, sample = cli.moments.ceiling_value, cli.moments.estimate_moments

    def logged_ceiling(*args, **kwargs):
        events.append("ceiling")
        return ceiling(*args, **kwargs)

    def logged_sample(*args, **kwargs):
        events.append("sample")
        return sample(*args, **kwargs)

    monkeypatch.setattr(cli.moments, "ceiling_value", logged_ceiling)
    monkeypatch.setattr(cli.moments, "estimate_moments", logged_sample)
    doc = run_json(["moment", "--lambda", "23", "--L", "3", "--samples", "6",
                    "--distances", "1,2", "--nmax", "8"], capsys)
    assert events == ["ceiling", "sample"]
    assert doc["result"]["note"].startswith("ceiling unavailable")
    assert all(e["ceiling_kind"] == "none" for e in doc["result"]["estimates"])


def test_verify_identity_checks_pass(capsys):
    doc = run_json(["verify", "--only", "depleted,resolvent,schur",
                    "--trials", "6"], capsys)
    checks = {c["name"]: c for c in doc["result"]["checks"]}
    assert set(checks) == {"depleted", "resolvent", "schur"}
    assert all(c["status"] == "pass" for c in checks.values())
    assert checks["depleted"]["detail"]["max_discrepancy"] < 1e-9
    assert doc["result"]["all_passed"]


def _random_site(region, seed, tag):
    return region.sites[int(unit_open(seed, (tag,)) * region.n_sites)]


def _identity_case_by_scan(dim, L, seed, t):
    """cli._identity_case's region, x and y, with each site drawn from a
    Region's site list and y from a plain scan of the box walk's surviving
    sites for the points at l1 distance 1 or 2 from x."""
    s0 = substream(seed, t)
    box = anderson.Region(dimension=dim, L=L)
    deleted, k = [], 0
    while len(deleted) < min(t % 3, box.n_sites - 1):
        cand = _random_site(box, s0, 100 + k)
        k += 1
        if cand not in deleted:
            deleted.append(cand)
    region = anderson.make_region(dim, L, deleted)
    x = _random_site(region, s0, 2)
    box = itertools.product(range(-L, L + 1), repeat=dim)
    nearby = [p for p in box if p not in region.deleted
              and 1 <= sum(abs(a - b) for a, b in zip(p, x)) <= 2]
    if not nearby:
        return None
    return region, x, nearby[int(unit_open(s0, (3,)) * len(nearby))]


@pytest.mark.parametrize("dim, L", [(1, 0), (1, 2), (2, 1), (2, 3), (3, 1)])
def test_identity_case_pair_matches_a_scan(dim, L):
    # cases with 0-2 deletions (t % 3); a one-site box and the d=1 boxes
    # reduced to far-apart sites have no near pair and give None
    nones = 0
    for t in range(300):
        case = cli._identity_case(dim, L, 17, t)
        want = _identity_case_by_scan(dim, L, 17, t)
        if want is None:
            assert case is None
            nones += 1
            continue
        region, _, x, y = case
        assert (region, x, y) == want
        assert all(type(c) is int for c in y)
    assert (nones > 0) == (dim == 1)


def test_verify_identity_checks_pass_at_weak_coupling(capsys):
    doc = run_json(["verify", "--only", "depleted,schur", "--trials", "5",
                    "--lambda", "5"], capsys)
    assert doc["result"]["all_passed"]


_HOPS = anderson.Region.hops.func
_BUILD = anderson.build_hamiltonian
_BANDED = anderson.ResolventColumns
_RULE = moments._apriori_rule
_LEGGAUSS = moments.leggauss
_ENTRIES = moments.resolvent_entries
_NEIGHBORS = anderson.Region.neighbors_in


def _hops_without_axis0(region):
    """Region.hops with every hop along axis 0 left out: its first and last
    columns, the -e_0 and +e_0 neighbors, all missing."""
    table = _HOPS(region)
    table[:, [0, -1]] = region.n_sites
    return table


def _doubled_diagonal(region, lam, omega, z=0.0):
    """build_hamiltonian with its diagonal written as 2*lam*omega - z."""
    return _BUILD(region, 2 * lam, omega, z)


def _banded_doubled_diagonal(region, lam, omega, z):
    """ResolventColumns with its diagonal written as 2*lam*omega - z."""
    return _BANDED(region, 2 * lam, omega, z)


def _rule_without_jacobian(t0, width, eta, s, n_nodes):
    """The a priori rule with its change-of-variables Jacobian dt/du dropped."""
    seg, t, log_r, log_jac, w = _RULE(t0, width, eta, s, n_nodes)
    return seg, t, log_r, np.zeros_like(log_jac), w


def _rule_halved_off_power_law(t0, width, eta, s, n_nodes):
    """The a priori rule with the weights of every piece off the power-law
    branch (every piece but eta = t0 = 0) halved: too small an integral
    wherever Im B != 0, exact at B = 0."""
    seg, t, log_r, log_jac, w = _RULE(t0, width, eta, s, n_nodes)
    power = (t0 == 0.0) & (eta == 0.0)
    return seg, t, log_r, log_jac, np.where(power[seg], w, 0.5 * w)


def _neighbors_but_last(region, p):
    """Region.neighbors_in with its last neighbor dropped."""
    return _NEIGHBORS(region, p)[:-1]


def _undepleted(region, p):
    """Region.without that deletes nothing: the conditional bound's right
    side then comes from the full region."""
    return region


def _diagonal_off_by_1e6(region, lam, omegas, z, pairs):
    """resolvent_entries with every G(x, x) 1 + 1e-6 times too large: in
    the conditional bound, a G(x, x) that moves the effective pole B."""
    g = _ENTRIES(region, lam, omegas, z, pairs)
    return g * np.where([tuple(x) == tuple(y) for x, y in pairs], 1.0 + 1e-6, 1.0)


def _leggauss_doubled(n):
    """Gauss-Legendre nodes with weights summing to 4: the omega(x) average
    loses the density 1/2 of the uniform law."""
    nodes, weights = _LEGGAUSS(n)
    return nodes, 2.0 * weights


_CHUNK = moments._moment_chunk


def _inflated_chunk(task):
    """_moment_chunk with every |G|^s value 1e4 times too large."""
    return 1e4 * _CHUNK(task)


def _flat_chunk(task):
    """_moment_chunk with the first pair's values in every column, so that
    every distance has the same mean."""
    vals = _CHUNK(task)
    return np.repeat(vals[:, :1], vals.shape[1], axis=1)


#: planted defect -> its (owner, attribute, replacement) triples for
#: monkeypatch.setattr
_PLANTS = {
    # the region's adjacency without axis-0 hops: both solvers read it, the
    # banded one through the band layout Region.band derives from it, and
    # the residual too; only neighbors_in keeps the true geometry
    "pattern": [(anderson.Region, "hops", property(_hops_without_axis0))],
    "diagonal": [(anderson, "ResolventColumns", _banded_doubled_diagonal)],
    "lu-diagonal": [(anderson, "build_hamiltonian", _doubled_diagonal)],
    "weightless": [(moments, "_apriori_rule", _rule_without_jacobian)],
    "halved": [(moments, "_apriori_rule", _rule_halved_off_power_law)],
    "density": [(moments, "leggauss", _leggauss_doubled)],
    "undepleted": [(anderson.Region, "without", _undepleted)],
    "neighbors": [(anderson.Region, "neighbors_in", _neighbors_but_last)],
    "pole": [(moments, "resolvent_entries", _diagonal_off_by_1e6)],
    "inflated": [(moments, "_moment_chunk", _inflated_chunk)],
    "flat": [(moments, "_moment_chunk", _flat_chunk)],
}


@pytest.mark.parametrize("planted, caught", [
    ("pattern", "depleted,resolvent"),
    ("diagonal", "schur"),
    ("diagonal", "resolvent"),
    ("lu-diagonal", "depleted"),
    ("weightless", "apriori"),
    ("halved", "apriori"),
    ("density", "drb"),
    ("undepleted", "drb"),
    ("undepleted", "resolvent"),
    ("neighbors", "depleted,resolvent"),
    ("pole", "drb"),
    ("inflated", "ceiling"),
    ("flat", "decay"),
])
def test_identity_checks_fail_on_planted_defect(capsys, monkeypatch, planted,
                                                caught):
    for plant in _PLANTS[planted]:
        monkeypatch.setattr(*plant)
    code, out, _ = run_main(["verify", "--only", caught, "--trials", "6"], capsys)
    assert code == 1
    checks = json.loads(out)["result"]["checks"]
    assert [c["name"] for c in checks] == caught.split(",")
    assert all(c["status"] == "fail" for c in checks)


_APRIORI = moments.apriori_integral
_DRB = moments.check_drb_conditional


def _nan_at_call(fn, at):
    """fn with the measurement of its call number at (from 0) NaN."""
    calls = []

    def planted(*args):
        calls.append(args)
        return math.nan if len(calls) == at + 1 else fn(*args)

    return planted


def _apriori_nan_at(grid, k):
    """apriori_integral with its value at the k-th B of the (s, lambda)
    grid's array call NaN."""
    def planted(lam, s, b):
        vals = _APRIORI(lam, s, b)
        if (s, lam) == grid and np.ndim(b):
            vals[k] = math.nan
        return vals

    return planted


def _drb_nan_at(env):
    """check_drb_conditional with the left side by the identities NaN in
    environment env."""
    def planted(*args):
        sides, envs = _DRB(*args), args[6]
        return [(lhs, rhs, math.nan if j == env else by_identity)
                for j, (lhs, rhs, by_identity) in zip(envs, sides)]

    return planted


#: check -> (first, later): the plants of one NaN measurement in the
#: check's first case and in a later one
_NAN_PLANTS = {
    name: tuple((anderson, attr, _nan_at_call(getattr(anderson, attr), at))
                for at in (0, 1))
    for name, attr in (("depleted", "verify_depleted_identity"),
                       ("resolvent", "verify_resolvent_expansion"),
                       ("schur", "verify_schur_diagonal"))
} | {
    "apriori": ((moments, "apriori_integral", _apriori_nan_at((0.3, 10.0), 0)),
                (moments, "apriori_integral", _apriori_nan_at((0.5, 30.0), 3))),
    "drb": ((moments, "check_drb_conditional", _drb_nan_at(0)),
            (moments, "check_drb_conditional", _drb_nan_at(1))),
}


@pytest.mark.parametrize("where", ["first", "later"])
@pytest.mark.parametrize("check", sorted(_NAN_PLANTS))
def test_verify_fails_on_a_nan_measurement(capsys, monkeypatch, check, where):
    # a NaN measurement fails its check wherever it falls, and its detail
    # shows NaN; Python's max and min would skip one that is not first
    first, later = _NAN_PLANTS[check]
    monkeypatch.setattr(*(first if where == "first" else later))
    code, out, _ = run_main(["verify", "--only", check, "--trials", "6",
                             "--n-env", "3", "--workers", "1"], capsys)
    assert code == 1
    (got,) = json.loads(out)["result"]["checks"]
    assert got["status"] == "fail"
    assert any(isinstance(v, float) and math.isnan(v)
               for v in got["detail"].values())


@pytest.mark.parametrize("args, file_cfg, code, shown", [
    (["verify", "--only", "depleted,resolvent,schur", "--L", "0"], None, 0,
     "no case ran"),
    (["verify", "--only", "depleted", "--trials", "0"], None, 0, "no case ran"),
    (["verify", "--only", "schur", "--L", "0", "--trials", "1"], None, 0,
     "no case ran"),
    (["verify", "--only", "apriori,depleted", "--trials", "0"], None, 0,
     "no case ran"),
    (["verify", "--only", "ceiling"], {"distances": "20..21"}, 0,
     "no distance lies inside the box"),
    (["moment", "--distances", ","], None, 2, "pair"),
    (["verify", "--only", "drb", "--n-env", "0"], None, 2, "n_env"),
    (["verify", "--only", "drb", "--L", "0"], None, 0, "no case ran"),
    (["verify", "--only", "ceiling,decay"], {"distances": "-2..3"}, 2,
     "distances"),
    (["verify", "--trials", "-3", "--only", "depleted"], None, 2, "trials"),
    (["verify", "--trials", "-3", "--only", "apriori"], None, 2, "trials"),
    (["verify", "--only", ",,"], None, 2, "only"),
    (["verify", "--workers", "0"], None, 2, "workers must be >= 1"),
    (["moment", "--L", "8", "--distances", "0..9"], None, 2,
     "distances must lie in [0, L=8]"),
    (["green", "--format", "csv"], None, 2, "json output only"),
    (["saw"], [2, 6], 2, "must hold a JSON object"),
    (["critical", "--mu", "inf", "--dims", "2"], None, 2, "mu must be finite"),
    (["critical", "--mu", "1e308", "--dims", "2"], None, 2, "a = inf"),
    (["green", "--z-imag", "nan"], None, 2, "z_imag must be finite"),
    (["green", "--lambda", "inf"], None, 2, "lambda must be finite"),
    (["green"], {"lambda": "nan"}, 2, "lambda must be finite"),
    (["critical", "--mu", "4.7"], None, 2, "--dims"),
    (["critical", "--dims", "5..2"], None, 2, "names no dimension"),
    (["critical", "--dims", ","], None, 2, "names no dimension"),
    (["critical", "--dims", "2", "--mu", "1e305"], None, 2,
     "exceeds the float range"),
    (["saw", "--dim", "2", "--nmax", "4", "--memory-budget", "-1"], None, 2,
     "memory_budget must be >= 0, got -1"),
    (["moment"], {"memory_budget": -1}, 2, "memory_budget must be >= 0"),
    (["critical", "--dims", "2.5"], None, 2,
     "dims must hold integers only, got '2.5'"),
    (["green", "--x", ","], None, 2, "x must hold integers only, got ','"),
    (["green", "--deleted", "1,0;x"], None, 2,
     "deleted must hold integers only, got '1,0;x'"),
    (["moment", "--distances", "1..x"], None, 2,
     "distances must hold integers only, got '1..x'"),
    (["verify", "--lambda", "0"], None, 2, "lambda must be positive"),
    (["verify", "--only", "apriori,drb", "--lambda", "-1"], None, 2,
     "lambda must be positive"),
    (["verify", "--only", "drb", "--s", "1.5"], None, 2,
     "s must lie in (0, 1), got 1.5"),
    (["verify", "--nmax", "0"], None, 2, "nmax must be >= 1"),
    (["verify", "--mu", "2.7", "--nmax", "-1", "--samples", "100", "--trials",
      "4", "--n-env", "2"], None, 2, "nmax must be >= 0, got -1"),
], ids=["identity-L0", "depleted-trials0", "schur-L0", "apriori-trials0",
        "ceiling-far", "moment-no-distance", "drb-n-env-0", "drb-L0",
        "verify-negative-distance", "depleted-trials-negative",
        "apriori-trials-negative", "only-no-check", "workers-0",
        "moment-distance-past-box", "green-csv", "config-list", "mu-inf",
        "mu-e-overflows", "z-imag-nan", "lambda-inf", "config-lambda-nan",
        "mu-without-dims", "dims-empty-range", "dims-no-entry",
        "root-past-float", "budget-negative", "config-budget-negative",
        "dims-not-integer", "point-no-entry", "points-bad-entry",
        "distances-bad-range", "drb-lambda-0", "drb-lambda-negative",
        "drb-s-past-1", "decay-nmax-0", "verify-nmax-negative"])
def test_degenerate_inputs_never_pass_vacuously(tmp_path, capsys, monkeypatch,
                                               args, file_cfg, code, shown):
    # an uncaught exception fails the test before any assert; bad input is
    # rejected before any pooled task runs
    def no_sampling(task):
        raise AssertionError("Monte Carlo ran on a degenerate input")

    pooled = []

    def recorded(fn, tasks, workers):
        pooled.append(fn)
        return parallel.map_ordered(fn, tasks, workers)

    monkeypatch.setattr(cli.moments, "_moment_chunk", no_sampling)
    monkeypatch.setattr(cli, "map_ordered", recorded)
    if file_cfg is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        args = args + ["--config", str(cfg)]
    got, out, err = run_main(args, capsys)
    assert got == code, err
    if code == 2:
        assert out == "" and err.startswith("error:") and shown in err
        assert pooled == []
    else:
        checks = json.loads(out)["result"]["checks"]
        assert checks and all(c["status"] == "skipped" for c in checks)
        assert all(shown in c["detail"]["reason"] for c in checks)


def test_verify_apriori_and_drb(capsys):
    doc = run_json(["verify", "--only", "apriori,drb", "--trials", "10",
                    "--n-env", "2"], capsys)
    checks = {c["name"]: c for c in doc["result"]["checks"]}
    assert checks["apriori"]["status"] == "pass"
    assert checks["apriori"]["detail"]["max_ratio"] <= 1.0 + 1e-8
    assert checks["drb"]["status"] == "pass"
    # each check's wall time sits under wallclock, outside the result
    stages = doc["wallclock"]["stages"]
    assert list(stages) == ["apriori", "drb"]
    assert all(isinstance(t, float) and t >= 0.0 for t in stages.values())
    assert sum(stages.values()) <= doc["wallclock"]["elapsed_seconds"]


@pytest.mark.parametrize("lam, ran", [("30", True), ("2", False)])
def test_verify_moment_task_seconds_are_their_own_stage(capsys, lam, ran):
    # the shared moment task is the stage moments, present exactly when it
    # ran; ceiling and decay keep a stage for their folds either way
    doc = run_json(["verify", "--lambda", lam, "--only", "ceiling,decay",
                    "--samples", "8", "--L", "4", "--nmax", "8",
                    "--workers", "1"], capsys)
    stages = doc["wallclock"]["stages"]
    assert sorted(stages) == ["ceiling", "decay"] + ["moments"] * ran
    assert sum(stages.values()) <= doc["wallclock"]["elapsed_seconds"]


def test_verify_details_carry_measurements_and_tolerances(capsys):
    doc = run_json(["verify", "--only", "depleted,resolvent,schur,apriori,drb",
                    "--trials", "4", "--n-env", "2"], capsys)
    details = {c["name"]: c["detail"] for c in doc["result"]["checks"]}
    for name in ("depleted", "resolvent", "schur"):
        assert details[name]["cases"] == 4
        assert 0.0 <= details[name]["max_discrepancy"] < 1e-9
        assert details[name]["tolerance"] == 1e-9
    apriori = details["apriori"]
    assert apriori["tolerance"] == 1e-8
    assert apriori["max_ratio"] <= 1.0 + 1e-8
    assert apriori["min_lower_ratio"] >= 1.0 - 1e-8
    assert apriori["saturation_tolerance"] == 1e-10
    assert apriori["saturation_error"] <= 1e-10
    drb = details["drb"]
    assert drb["tolerance"] == 1e-6 and drb["min_margin"] >= -1e-6
    assert drb["identity_tolerance"] == 1e-9
    assert 0.0 <= drb["max_identity_gap"] <= 1e-9
    assert doc["result"]["all_passed"]


@pytest.mark.parametrize("lam", ["5", "30"])
def test_verify_apriori_and_drb_pass_across_seeds(capsys, lam):
    for seed in range(5):
        doc = run_json(["verify", "--only", "apriori,drb", "--lambda", lam,
                        "--seed", str(seed), "--trials", "20"], capsys)
        assert doc["result"]["all_passed"], (seed, doc["result"]["checks"])


def test_verify_ceiling_skipped_when_criterion_not_met(capsys):
    code, out, _ = run_main(["verify", "--only", "ceiling", "--lambda", "5",
                             "--samples", "8", "--L", "4", "--nmax", "8"],
                            capsys)
    assert code == 0  # skipped checks do not fail the run
    doc = json.loads(out)
    (check,) = doc["result"]["checks"]
    assert check["status"] == "skipped"
    assert "criterion not met" in check["detail"]["reason"]


def test_verify_ceiling_and_decay_pass(capsys):
    doc = run_json(["verify", "--only", "ceiling,decay", "--samples", "40",
                    "--L", "6", "--nmax", "12"], capsys)
    checks = {c["name"]: c for c in doc["result"]["checks"]}
    assert checks["ceiling"]["status"] == "pass"
    assert checks["decay"]["status"] == "pass"
    assert checks["decay"]["detail"]["dominates_reference"]


def test_verify_ceiling_skip_runs_no_monte_carlo(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("Monte Carlo ran for a skipped ceiling")

    monkeypatch.setattr(cli.moments, "estimate_moments", no_sampling)
    code, out, _ = run_main(["verify", "--lambda", "5", "--only", "ceiling"],
                            capsys)
    assert code == 0
    (check,) = json.loads(out)["result"]["checks"]
    assert check["status"] == "skipped"
    assert "criterion not met" in check["detail"]["reason"]


def test_verify_decay_with_mu_enumerates_no_walks(capsys, monkeypatch):
    def no_walks(*args, **kwargs):
        raise AssertionError("walks enumerated although --mu was given")

    monkeypatch.setattr(cli.saw, "enumerate_walks", no_walks)
    code, out, _ = run_main(["verify", "--only", "decay", "--mu", "0.3",
                             "--samples", "40", "--L", "6"], capsys)
    assert code == 1
    (check,) = json.loads(out)["result"]["checks"]
    assert check["status"] == "fail"
    assert check["detail"]["mu_upper"] == 0.3


@pytest.mark.parametrize("args, file_cfg, reason", [
    (["--lambda", "2", "--only", "ceiling,decay"], None, "criterion not met"),
    (["--only", "ceiling"], {"distances": "20..21"}, "no distance lies inside"),
    (["--only", "decay"], {"distances": "1,2"}, "need >= 3 distances"),
    (["--only", "decay"], {"distances": "1,1,2"}, "need >= 3 distances"),
], ids=["below-e", "ceiling-far", "decay-two-distances",
        "decay-repeated-distance"])
def test_verify_skipped_moment_checks_enumerate_no_walks(tmp_path, capsys,
                                                         monkeypatch, args,
                                                         file_cfg, reason):
    # counted, not raised: a moment task that raised and was never read
    # would pass unseen; with one task the pool runs it in this process
    calls = []
    monkeypatch.setattr(cli.saw, "enumerate_walks",
                        lambda *a, **k: calls.append(a))
    if file_cfg is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        args = args + ["--config", str(cfg)]
    code, out, _ = run_main(["verify"] + args, capsys)
    assert code == 0
    checks = json.loads(out)["result"]["checks"]
    assert checks and all(c["status"] == "skipped" for c in checks)
    assert all(reason in c["detail"]["reason"] for c in checks)
    assert calls == []


def test_verify_ceiling_on_a_box_of_pair_points(tmp_path, capsys):
    # every site of the one-site box is a pair point: no site to delete
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distances": "0"}))
    doc = run_json(["verify", "--only", "ceiling", "--dim", "1", "--L", "0",
                    "--samples", "8", "--config", str(cfg)], capsys)
    (check,) = doc["result"]["checks"]
    assert check["status"] == "pass"
    assert check["detail"]["regions"] == 2


@pytest.mark.parametrize("lam, runs, moment_regions", [
    # the four family regions in two runs (the full box with its two
    # derived boxes, then the half box); decay reuses the full box
    pytest.param("30", 2, 4, id="30-4"),
    # ceiling skipped before sampling; decay samples the box
    pytest.param("5", 1, 1, id="5-1"),
])
def test_verify_shares_series_and_box_estimates(capsys, monkeypatch, lam,
                                                runs, moment_regions):
    calls = {"walks": 0, "runs": 0, "regions": 0}
    walks, sample = cli.saw.enumerate_walks, cli.moments.estimate_moments

    def counted_walks(*args, **kwargs):
        calls["walks"] += 1
        return walks(*args, **kwargs)

    def counted_sample(*args, **kwargs):
        calls["runs"] += 1
        calls["regions"] += 1 + len(kwargs.get("deleted", ()))
        return sample(*args, **kwargs)

    monkeypatch.setattr(cli.saw, "enumerate_walks", counted_walks)
    monkeypatch.setattr(cli.moments, "estimate_moments", counted_sample)
    code, out, _ = run_main(["verify", "--only", "decay,ceiling", "--lambda",
                             lam, "--samples", "8", "--L", "4", "--nmax", "8"],
                            capsys)
    assert code in (0, 1)
    names = [c["name"] for c in json.loads(out)["result"]["checks"]]
    assert names == ["ceiling", "decay"]  # table order, not --only order
    assert calls == {"walks": 1, "runs": runs, "regions": moment_regions}


@pytest.mark.parametrize("lam", ["30", "5"])  # at 5 the ceiling is unavailable
@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_decay_reads_the_full_box_whatever_else_runs(capsys, lam,
                                                            workers):
    details = []
    for only in ("decay", "ceiling,decay"):
        doc = run_json(["verify", "--only", only, "--lambda", lam, "--samples",
                        "40", "--L", "4", "--nmax", "8", "--workers", workers],
                       capsys)
        checks = {c["name"]: c for c in doc["result"]["checks"]}
        assert checks["decay"]["status"] != "skipped"
        details.append(checks["decay"]["detail"])
    assert details[0] == details[1]


def test_verify_only_help_lists_the_check_table(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert ",".join(cli._CHECKS) in capsys.readouterr().out
    assert list(cli._CHECKS) == ["depleted", "resolvent", "schur", "apriori",
                                 "drb", "ceiling", "decay"]


def test_verify_decay_fails_against_bogus_reference(capsys):
    # mu far below any walk bound makes the reference rate unbeatable,
    # exercising the bound-failure exit path
    code, out, _ = run_main(["verify", "--only", "decay", "--mu", "0.3",
                             "--samples", "40", "--L", "6", "--nmax", "10"],
                            capsys)
    assert code == 1
    doc = json.loads(out)
    (check,) = doc["result"]["checks"]
    assert check["status"] == "fail"
    assert not doc["result"]["all_passed"]


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run_main(["verify", "--only", "nonsense"], capsys)
    assert code == 2
    assert "unknown checks" in err


def test_verify_csv_rejected(capsys):
    code, _, err = run_main(["verify", "--format", "csv", "--only", "apriori",
                             "--trials", "2"], capsys)
    assert code == 2


def test_saw_budget_exits_3(capsys):
    code, _, err = run_main(["saw", "--dim", "3", "--nmax", "10",
                             "--memory-budget", "1000"], capsys)
    assert code == 3
    assert "budget" in err


def test_saw_deeper_than_the_default_recursion_limit_exits_0(capsys):
    # the block tree walk nests no call per step, so a length past the
    # interpreter's default recursion limit of 1000 still runs
    code, out, _ = run_main(["saw", "--dim", "1", "--nmax", "1100",
                             "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[:2] == ["n,c_n", "0,1"]
    assert lines[2:] == [f"{n},2" for n in range(1, 1101)]


def test_saw_past_exact_int64_block_sums_exits_3(capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("the tree walk started")

    monkeypatch.setattr(saw, "_canonical_counts", no_walk)
    code, out, err = run_main(["saw", "--dim", "30", "--nmax", "30",
                               "--memory-budget", str(1 << 200)], capsys)
    assert code == 3
    assert out == ""
    assert "int64" in err


@pytest.fixture
def pool_starts(monkeypatch):
    """A list that gains one entry per process pool that
    parallel.map_ordered starts."""
    starts = []

    class CountedPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountedPool)
    return starts


@pytest.mark.parametrize("lam", ["30", "5"])
def test_verify_artifacts_identical_across_worker_counts(capsys, pool_starts,
                                                         lam):
    docs = {}
    for workers in ("1", "2"):
        doc = run_json(["verify", "--lambda", lam, "--samples", "40", "--L", "4",
                        "--nmax", "8", "--trials", "6", "--n-env", "2",
                        "--workers", workers], capsys)
        del doc["wallclock"], doc["config"]["workers"]
        docs[workers] = doc
    assert docs["1"] == docs["2"]
    assert [c["name"] for c in docs["1"]["result"]["checks"]] == list(cli._CHECKS)
    # one pool: the moment checks' task (the walk series and the ceiling's
    # Monte Carlo, or at lambda = 5 decay's) with the pooled checks' tasks
    assert pool_starts == [2]


def test_verify_pool_tasks_open_no_nested_section(capsys, monkeypatch):
    # the moment task samples inside a pool worker; a map_ordered call there
    # would open a section inside a section, which perfbench's tracer (it
    # restarts a worker's trace per task) cannot follow
    main_pid, map_ordered = os.getpid(), cli.moments.map_ordered

    def main_process_only(*args):
        assert os.getpid() == main_pid, "map_ordered called in a pool task"
        return map_ordered(*args)

    monkeypatch.setattr(cli.moments, "map_ordered", main_process_only)
    code, out, err = run_main(["verify", "--only", "depleted,ceiling,decay",
                               "--samples", "8", "--L", "4", "--nmax", "8",
                               "--trials", "4", "--workers", "2"], capsys)
    assert code in (0, 1), err
    assert [c["name"] for c in json.loads(out)["result"]["checks"]] == [
        "depleted", "ceiling", "decay"]


def _singular_case(*args):
    raise anderson.SingularSystemError(f"planted in process {os.getpid()}")


def _out_of_memory_case(*args):
    raise MemoryError(f"planted in process {os.getpid()}")


@pytest.mark.parametrize("args, file_cfg, plant, code, shown", [
    (["--only", "depleted,schur"], None,
     (anderson, "verify_depleted_identity", _singular_case), 4,
     "planted in process"),
    (["--only", "resolvent"], None,
     (anderson, "verify_resolvent_expansion", _singular_case), 4,
     "planted in process"),
    (["--only", "depleted,ceiling"], {"memory_budget": 1000}, None, 3,
     "budget"),
    (["--only", "depleted"], None,
     (anderson, "verify_depleted_identity", _out_of_memory_case), 3,
     "planted in process"),
], ids=["singular-depleted-case", "singular-resolvent-case",
        "series-over-budget", "depleted-case-out-of-memory"])
def test_verify_pool_task_errors_keep_their_exit_codes(
        tmp_path, capsys, monkeypatch, pool_starts, args, file_cfg, plant,
        code, shown):
    if plant is not None:
        monkeypatch.setattr(*plant)
    if file_cfg is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        args = args + ["--config", str(cfg)]
    got, out, err = run_main(["verify", "--trials", "4", "--workers", "2"]
                             + args, capsys)
    assert got == code, err
    assert out == "" and shown in err
    assert pool_starts == [2]  # the error was raised in a pool worker
    assert f"process {os.getpid()}" not in err


@pytest.mark.parametrize("args", [
    ["verify", "--only", "decay"],
    ["moment"],
])
def test_config_memory_budget_applies_to_every_walk_series(tmp_path, capsys,
                                                           args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"memory_budget": 1000}))
    code, _, err = run_main(args + ["--config", str(cfg)], capsys)
    assert code == 3
    assert "budget" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 2, "nmax": 6, "lambda": 12.5}))
    doc = run_json(["saw", "--config", str(cfg), "--nmax", "4"], capsys)
    assert doc["config"]["nmax"] == 4      # flag wins
    assert doc["config"]["dim"] == 2       # from file
    assert doc["config"]["lambda"] == 12.5


@pytest.mark.parametrize("key, value, shown", [
    ("lambda", 12.5, "lambda"), ("lambda_", 12.5, "lambda"),
    ("z-real", 0.5, "z_real"), ("z_real", 0.5, "z_real"),
    ("memory-budget", 10**6, "memory_budget"), ("n_env", 3, "n_env"),
])
def test_config_key_names(tmp_path, capsys, key, value, shown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    doc = run_json(["saw", "--dim", "2", "--nmax", "3", "--config", str(cfg)],
                   capsys)
    assert doc["config"][shown] == value


def test_green_config_file_matches_flags(tmp_path, capsys):
    flags = run_json(["green", "--dim", "2", "--L", "3", "--seed", "5",
                      "--lambda", "30", "--x", "2,0", "--y", "0,0",
                      "--deleted", "1,1"], capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 2, "L": 3, "seed": 5, "lambda": 30,
                               "x": [2, 0], "y": [0, 0], "deleted": [[1, 1]]}))
    from_file = run_json(["green", "--config", str(cfg)], capsys)
    assert from_file["result"] == flags["result"]
    assert from_file["config"] == flags["config"]
    assert from_file["config"]["lambda"] == 30.0
    assert from_file["config"]["deleted"] == "1,1"


def test_moment_config_file_matches_flags(tmp_path, capsys):
    flags = run_json(["moment", "--dim", "2", "--L", "3", "--lambda", "30",
                      "--samples", "6", "--distances", "1,2", "--nmax", "6"],
                     capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 2, "L": 3, "lambda": 30, "samples": 6,
                               "distances": [1, 2], "nmax": 6}))
    from_file = run_json(["moment", "--config", str(cfg)], capsys)
    for doc in (flags, from_file):
        doc.pop("wallclock")
        doc["config"].pop("out")
    assert from_file == flags


@pytest.mark.parametrize("args, file_cfg, code, shown", [
    (["saw", "--dim", "2", "--nmax", "2"], {"workers": "2"}, 0, ("workers", 2)),
    (["saw", "--nmax", "3"], {"dim": 2.9}, 2, None),
    (["saw", "--nmax", "2"], {"dim": True}, 2, None),
    (["verify", "--n-env", "2"], {"only": ["drb"]}, 0,
     ("only", "drb")),
    (["saw", "--dim", "2", "--nmax", "2"], {"memory_budget": None}, 0,
     ("memory_budget", saw.DEFAULT_MEMORY_BUDGET)),
], ids=["workers-text", "dim-float", "dim-bool", "only-list", "budget-null"])
def test_config_values_take_their_flag_type(tmp_path, capsys, args, file_cfg,
                                            code, shown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    got, out, err = run_main(args + ["--config", str(cfg)], capsys)
    assert got == code, err
    if code == 2:
        assert out == ""
        assert "'dim'" in err
        return
    doc = json.loads(out)
    key, value = shown
    assert doc["config"][key] == value
    if args[0] == "verify":
        assert [c["name"] for c in doc["result"]["checks"]] == ["drb"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_format_exits_2(tmp_path, capsys, source):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    extra = ["--format", "xml"] if source == "flag" else ["--config", str(cfg)]
    try:
        code = cli.main(["saw", "--dim", "2", "--nmax", "3"] + extra)
    except SystemExit as exc:  # an argparse error exits 2 the same way
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "xml" in out.err


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_main(["saw", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config key" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_main(["saw", "--config", "/nonexistent.json"], capsys)
    assert code == 2


_COMMON_FLAGS = [("--config", "config", str), ("--format", "format", str),
                 ("--out", "out", str), ("--seed", "seed", int),
                 ("--workers", "workers", int)]

# every subcommand's (option string, dest, type), frozen from the parser that
# declared each flag by hand (its text flags had type None, which argparse
# treats as str)
_FLAGS = {
    "saw": [("--dim", "dim", int), ("--nmax", "nmax", int),
            ("--memory-budget", "memory_budget", int)],
    "critical": [("--dims", "dims", str), ("--mu", "mu", float)],
    "green": [("--dim", "dim", int), ("--L", "L", int),
              ("--lambda", "lambda_", float), ("--z-real", "z_real", float),
              ("--z-imag", "z_imag", float), ("--x", "x", str),
              ("--y", "y", str), ("--deleted", "deleted", str)],
    "moment": [("--dim", "dim", int), ("--L", "L", int),
               ("--lambda", "lambda_", float), ("--s", "s", float),
               ("--z-real", "z_real", float), ("--z-imag", "z_imag", float),
               ("--samples", "samples", int), ("--distances", "distances", str),
               ("--nmax", "nmax", int)],
    "verify": [("--dim", "dim", int), ("--L", "L", int),
               ("--lambda", "lambda_", float), ("--s", "s", float),
               ("--z-real", "z_real", float), ("--z-imag", "z_imag", float),
               ("--samples", "samples", int), ("--eps", "eps", float),
               ("--mu", "mu", float), ("--trials", "trials", int),
               ("--nmax", "nmax", int), ("--n-env", "n_env", int),
               ("--only", "only", str)],
}


def test_subcommand_flags_pinned():
    top = cli.build_parser()
    (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_FLAGS)
    for command, flags in _FLAGS.items():
        got = [(a.option_strings[0], a.dest, a.type or str)
               for a in sub.choices[command]._actions
               if not isinstance(a, argparse._HelpAction)]
        assert got == _COMMON_FLAGS + flags, command
        assert all(len(a.option_strings) == 1
                   for a in sub.choices[command]._actions[1:])


def test_version_flag():
    proc = subprocess.run([sys.executable, "-m", "andloc.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_artifacts_independent_of_openblas_threads(tmp_path):
    # every LAPACK routine on the path must give the same bits at any
    # OpenBLAS thread count; the four runs go at once to keep the test short
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(PYPROJECT.parent / "src"))
        for argv in (["moment", "--dim", "2", "--L", "5", "--samples", "50"],
                     ["green"]):
            out = tmp_path / f"{argv[0]}-{threads}.json"
            proc = subprocess.Popen(
                [sys.executable, "-m", "andloc.cli", *argv, "--out", str(out)],
                env=env, stderr=subprocess.PIPE, text=True)
            runs[argv[0], threads] = out, proc
    texts = {}
    for key, (out, proc) in runs.items():
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        doc = json.loads(out.read_text())
        del doc["wallclock"], doc["config"]["out"]
        texts[key] = json.dumps(doc, sort_keys=True)
    for command in ("moment", "green"):
        assert texts[command, "1"] == texts[command, "2"], command


def test_import_pulls_in_no_scipy_integrate():
    # scipy.integrate and the scipy.optimize and scipy.special it imports cost
    # every command about 0.3 s of start-up; the a priori rule needs none of them
    probe = ("import sys, andloc.cli; print(' '.join(m for m in "
             "('scipy.integrate', 'scipy.optimize', 'scipy.special') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""

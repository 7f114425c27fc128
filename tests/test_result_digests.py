"""Pinned results: each command line's `result` block, hashed.

A refactor that is meant to keep every output moves no digest here.  A
change that moves results on purpose re-pins the rows it moves, in the same
diff.  The digests were taken on the numeric stack in STACK; a different
OpenBLAS can move LAPACK's last bits, so a failure names the stack when the
running one differs.  The saw artifact is pinned byte for byte in
test_cli.SAW_ARTIFACT_SHA256.
"""

import hashlib
import json
import shlex

import numpy as np
import pytest
import scipy

from andloc import cli

STACK = {"numpy": "2.4.6", "scipy": "1.17.1"}

#: command line -> (SHA-256 of json.dumps(result, sort_keys=True), and the
#: first 16 hex digits of each top-level key's own digest, which name the
#: keys that moved when the first one does)
RESULT_SHA256 = {
    "moment --dim 2 --L 8 --lambda 30 --samples 2000 --distances 0..5 --seed 0": (
        "00c5fecd927e6056bd186e3478c194eb713eb47addf9f195641093e91203a581",
        {"estimates": "6da59c980e1fdf16", "note": "74234e98afe7498f"}),
    "moment --dim 3 --L 3 --lambda 20 --samples 300 --distances 0..3 --seed 1": (
        "b1b10e643942602b01734ae0a6277e7784256741ec1a42166cae3c6f33923be4",
        {"estimates": "5ac4bf274fe93ed8", "note": "a36a156ede6e6d2a"}),
    "verify --lambda 30 --seed 0": (
        "244afa7a368b0da4bcc76904e48f73e7be1827d0373aaaea63a5ddd1df73196b",
        {"all_passed": "b5bea41b6c623f7c", "checks": "2bf6e64a515ba050"}),
    "verify --lambda 60 --seed 3": (
        "6ab25a963dfa6916f71c75091321004bcc06873089df7953e62a0ea460a76d67",
        {"all_passed": "b5bea41b6c623f7c", "checks": "87bfe65ea7616182"}),
    "verify --z-imag 0 --z-real 0.3 --seed 2 --only depleted,schur,drb": (
        "b2063b2536e413eeddd4081e0116259dca84ec60a54339de1fa1c1d4fe196e69",
        {"all_passed": "b5bea41b6c623f7c", "checks": "2ef04f0c2fb2ddde"}),
    "green --seed 3 --x 2,1": (
        "5124449e24185b4e2b4ca99a659fec9c40f2cec3816d42ce4c93395c25b1b96f",
        {"evaluation": "9253adf3728bf7bf", "sample": "234b72d3d0a9ceb3"}),
    "green --seed 5 --deleted 1,1 --x 2,0": (
        "c66aee03bc3f171b83f1c979de703552623c65f53a8798d3928e15e8f73d0842",
        {"evaluation": "86dd2294dbd686d8", "sample": "9f48b415396f6738"}),
    "critical": (
        "83089e998eef21d847b675ecbd2db74696245ce69773c2ddbb93f81385cfe031",
        {"reports": "cf952b1f70bd837e"}),
}


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("line", list(RESULT_SHA256))
def test_result_digest_pinned(capsys, line):
    code = cli.main(shlex.split(line))
    out = capsys.readouterr()
    assert code == 0, out.err
    result = json.loads(out.out)["result"]
    whole, keys = RESULT_SHA256[line]
    if _sha256(result) == whole:
        return
    moved = sorted(k for k in keys.keys() | result.keys()
                   if k not in result or _sha256(result[k])[:16] != keys.get(k))
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    stack = ("" if running == STACK else
             f"; the digests were taken on {STACK}, this run is on {running}")
    pytest.fail(f"{line!r}: result keys {moved} moved{stack}")

"""sha256 pins of the kernel-independent fields of `sample` records.

The zeros and the coupling residual come out of a LAPACK eigenvalue
solve, so their last bits move with the OpenBLAS kernel.  The draws
(s, t, kappa), the coefficients (a, b) and the verdicts (in_S, clause)
do not, so their bytes are pinned here: any change to seeding, drawing,
chunking or the worker split that moves one bit of them fails on every
host.  600 trials span several chunks at workers 1 and 3.
"""

import hashlib
import json

import pytest

from openrmt import cli

FIELDS = ("trial", "a", "b", "s", "t", "kappa", "in_S", "clause")
TRIALS = 600
SEED = 11

PINS = {
    (2, 1, "chi:3:0.5"): "b285441aa413d3bd4d604549832f807a04af97eded1e686d857ebb004fdb0169",
    (2, 3, "chi:3:0.5"): "717fa721eed597f2d9347dcd7797d3f70fe00ed3751def4f2e77ce1b31ed525d",
    (4, 8, "uniform:0.5:2"): "aa0a3fd5caa1d35864be4fa8e6e6191960d3013aadf404ab854b35cdf7654547",
    (2, 3, "point:1"): "5e047174218a0812040c541585bdd1a4af3d22e715664c03f8f4e670e86358ea",
}


def _digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        rec = json.loads(line)
        h.update(json.dumps({key: rec[key] for key in FIELDS}, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("beta, n, law", list(PINS))
def test_sample_draws_and_verdicts_are_pinned(beta, n, law, workers, capsys):
    argv = ["sample", "--beta", str(beta), "--n", str(n), "--kappa", law,
            "--trials", str(TRIALS), "--seed", str(SEED), "--workers", str(workers)]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["trial"] for line in lines] == list(range(TRIALS))
    assert _digest(lines) == PINS[beta, n, law]

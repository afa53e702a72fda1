"""sha256 pins of the kernel-independent fields of `sample` records.

The zeros and the coupling residual come out of a LAPACK eigenvalue
solve, so their last bits move with the OpenBLAS kernel.  The draws
(s, t, kappa), the coefficients (a, b) and the verdicts (in_S, clause)
do not, so their bytes are pinned here: any change to seeding, drawing,
chunking or the worker split that moves one bit of them fails on every
host.  600 trials span several chunks at workers 1 and 3.  A subprocess
run under an older OpenBLAS kernel checks the same fields, and the zeros
to a relative bound, across kernels.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
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


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its build config
        return ""


def _sample_records(env_extra: dict) -> list[dict]:
    env = {key: value for key, value in os.environ.items() if key != "OPENRMT_SEED"}
    argv = [sys.executable, "-m", "openrmt.cli", "sample", "--beta", "1", "--n", "32",
            "--trials", "200", "--seed", str(SEED)]
    proc = subprocess.run(argv, capture_output=True, text=True, env={**env, **env_extra}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or "openblas" not in _blas_name(),
    reason="the kernel switch is an x86-64 OpenBLAS setting",
)
def test_draws_verdicts_and_zeros_hold_across_openblas_kernels():
    """The detected kernel and Prescott, the oldest x86-64 one, differ only in the zeros' last bits."""
    default, prescott = _sample_records({}), _sample_records({"OPENBLAS_CORETYPE": "Prescott"})
    assert len(default) == len(prescott) == 200
    for one, two in zip(default, prescott):
        assert {key: one[key] for key in FIELDS} == {key: two[key] for key in FIELDS}
        assert [z[2] for z in one["zeros"]] == [z[2] for z in two["zeros"]]
        zeros_one, zeros_two = (np.array([complex(re, im) for re, im, _ in r["zeros"]]) for r in (one, two))
        np.testing.assert_allclose(zeros_two, zeros_one, rtol=1e-12, atol=0)

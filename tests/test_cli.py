import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from openrmt import DensityParams, KappaDistribution, cli, log_density_random_kappa, spectra
from openrmt.spectra import canonicalize_conjugates, classify

SEED = "4242"


def run_cli(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    env.pop("OPENRMT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "openrmt.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_sample_emits_json_lines_with_sorted_keys():
    proc = run_cli("sample", "--n", "2", "--trials", "4", "--seed", SEED)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True)
        for key in ("trial", "s", "t", "kappa", "a", "b", "zeros", "in_S", "kappa_check_residual"):
            assert key in rec
        for _, _, label in rec["zeros"]:
            assert label in ("eigenvalue", "resonance")


def test_sample_is_byte_identical_across_workers():
    one = run_cli("sample", "--n", "2", "--trials", "600", "--seed", SEED, "--workers", "1")
    eight = run_cli("sample", "--n", "2", "--trials", "600", "--seed", SEED, "--workers", "8")
    assert one.returncode == eight.returncode == 0
    assert one.stdout == eight.stdout


def test_seed_env_variable_is_the_default():
    via_env = run_cli("sample", "--n", "1", "--trials", "3", env_extra={"OPENRMT_SEED": SEED})
    via_flag = run_cli("sample", "--n", "1", "--trials", "3", "--seed", SEED)
    assert via_env.stdout == via_flag.stdout


@pytest.mark.parametrize("n", [1, 3, 8])
def test_sample_at_unit_coupling_is_admissible(capsys, n):
    argv = ["sample", "--n", str(n), "--kappa", "point:1", "--trials", "40", "--seed", SEED]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines()]
    assert len(records) == 40
    for rec in records:
        assert rec["in_S"] is True and rec["clause"] is None
        assert rec["kappa_check_residual"] <= 1e-9
        assert len(rec["zeros"]) == 2 * n - 1  # the origin zero is dropped
    assert out.err == ""


def test_sample_reports_rejections_on_stderr(capsys, monkeypatch):
    argv = ["sample", "--n", "2", "--trials", "5", "--seed", SEED]
    assert cli.main(argv) == 0
    clean = capsys.readouterr().out.splitlines()
    real, calls = spectra.is_in_S, []

    def first_call_fails(k, config):
        calls.append(k)
        return spectra.SMembership(False, "ii", "forced") if len(calls) == 1 else real(k, config)

    monkeypatch.setattr(spectra, "is_in_S", first_call_fails)
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert json.loads(lines[0])["clause"] == "ii"
    assert lines[1:] == clean[1:]
    assert out.err.splitlines() == ["warning: 1 of 5 records not in S (ii: 1)"]


def test_sample_csv_projection(tmp_path):
    csv_path = tmp_path / "zeros.csv"
    proc = run_cli(
        "sample", "--n", "2", "--trials", "3", "--seed", SEED,
        "--out", str(tmp_path / "records.jsonl"), "--csv", str(csv_path),
    )
    assert proc.returncode == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "trial,re,im,label"
    assert len(rows) == 1 + 3 * 4  # four zeros per trial at n = 2


def test_spectrum_fixture():
    proc = run_cli("spectrum", "--a", "3", "--b", "2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["polynomial"] == [-8.0, -2.0, 1.0]
    assert doc["in_S"] is True
    assert np.allclose(doc["eigenvalues"], [-2.5, 4.25])
    labels = [z[2] for z in doc["zeros"]]
    assert labels == ["eigenvalue", "eigenvalue"]


def test_spectrum_with_trivial_top_level_is_admissible(capsys):
    # a_2 = 1, b_2 = 0: L*_4 = z^2 L*_2, two origin zeros and two resonances
    assert cli.main(["spectrum", "--a", "0.5,1", "--b", "0.3,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["in_S"] is True and doc["clause"] is None
    assert [label for _, _, label in doc["zeros"]] == ["resonance", "resonance"]


def test_spectrum_reads_json_from_stdin():
    proc = run_cli("spectrum", "--input", "-", stdin='{"a": [2.0], "b": [0.0]}')
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["polynomial"] == [-3.0, 0.0, 1.0]


def test_spectrum_requires_coefficients():
    proc = run_cli("spectrum")
    assert proc.returncode == 2


def test_verify_roundtrip_passes():
    proc = run_cli("verify", "roundtrip", "--trials", "40", "--seed", SEED)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    assert doc["verdicts"]["max_rel_error"] is True


def test_verify_unknown_suite_is_a_usage_error():
    proc = run_cli("verify", "nonsense")
    assert proc.returncode == 2


def test_density_eval_matches_library():
    doc = '{"points": [[4.0, 0.0], [-2.0, 0.0]]}'
    proc = run_cli("density", "eval", "--beta", "2", "--kappa", "uniform:0.5:5", stdin=doc)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    config = classify(canonicalize_conjugates(np.array([4.0 + 0j, -2.0 + 0j])))
    params = DensityParams(2.0, 1, 1.0, KappaDistribution("uniform", (0.5, 5.0)))
    expected = log_density_random_kappa(config, params)
    assert abs(out["log_density"] - expected.log_value) < 1e-12
    assert out["kappa_implied"] == 3.0
    assert out["in_support"] is True


def test_density_eval_out_of_support_still_exits_zero():
    doc = '{"points": [[0.5, 0.0], [2.5, 0.0]]}'
    proc = run_cli("density", "eval", "--beta", "2", stdin=doc)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["in_support"] is False
    assert out["log_density"] is None
    assert out["density"] == 0.0


def test_density_eval_odd_count_uses_fixed_coupling():
    doc = '{"points": [[0.3, 0.0], [0.5, 0.5], [0.5, -0.5]]}'
    proc = run_cli("density", "eval", "--beta", "1", stdin=doc)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["n"] == 2
    assert out["kappa_implied"] is None
    assert out["in_support"] is True


def test_density_mc_compare_refuses_small_runs():
    proc = run_cli("density", "mc-compare", "--trials", "5000")
    assert proc.returncode == 2


def test_malformed_kappa_is_a_usage_error():
    proc = run_cli("sample", "--kappa", "lognormal:1:2", "--trials", "1")
    assert proc.returncode == 2
    proc = run_cli("density", "normalize", "--kappa", "chi:oops:1")
    assert proc.returncode == 2


def test_density_normalize_report():
    proc = run_cli("density", "normalize", "--beta", "2", "--kappa", "chi:3:0.5")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    assert abs(doc["statistics"]["total"] - 1.0) < 0.01

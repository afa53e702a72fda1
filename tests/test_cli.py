import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from openrmt import EnsembleParams, KappaDistribution, cli, experiments, log_density
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
    real = experiments.resolve_rows

    def first_row_fails(roots, k):
        rows = real(roots, k)
        rows.clause[0] = "ii"
        return rows

    monkeypatch.setattr(experiments, "resolve_rows", first_row_fails)
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


def test_spectrum_cuts_trailing_free_levels(capsys):
    # two free levels on top: L*_6 = z^4 L*_2, four exact origin zeros
    assert cli.main(["spectrum", "--a", "0.5,1,1", "--b", "0.3,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["in_S"] is True and doc["clause"] is None
    assert doc["polynomial"][:4] == [0.0] * 4
    assert [label for _, _, label in doc["zeros"]] == ["resonance", "resonance"]
    assert cli.main(["spectrum", "--a", "1,1", "--b", "0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["in_S"] is True and doc["zeros"] == []


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
    params = EnsembleParams(2.0, 1, 1.0, KappaDistribution("uniform", (0.5, 5.0)))
    expected = log_density(config, params)
    assert abs(out["log_density"] - expected.log_value) < 1e-12
    assert out["kappa_implied"] == 3.0
    assert out["in_support"] is True


def test_density_eval_pairs_inexact_conjugates():
    doc = '{"points": [[0.5, 0.3], [0.5000000001, -0.3], [0.5, 0.6], [0.5, -0.6]]}'
    proc = run_cli("density", "eval", "--beta", "2", stdin=doc)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["count"] == 4 and out["n"] == 2
    exact = [0.5 + 0.3j, 0.5 - 0.3j, 0.5 + 0.6j, 0.5 - 0.6j]
    config = classify(canonicalize_conjugates(np.array(exact)))
    params = EnsembleParams(2.0, 2, 1.0, KappaDistribution("chi", (3.0, 0.5)))
    assert out["log_density"] == pytest.approx(log_density(config, params).log_value)


def test_density_eval_out_of_support_still_exits_zero():
    doc = '{"points": [[0.5, 0.0], [2.5, 0.0]]}'
    proc = run_cli("density", "eval", "--beta", "2", stdin=doc)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["in_support"] is False
    assert out["log_density"] is None
    assert out["density"] == 0.0


def test_density_eval_writes_an_infinite_density_as_null():
    # at beta = 1 a conjugate pair on the unit circle makes the density infinite
    doc = '{"points": [[0.3, 0.0], [0.6, 0.8], [0.6, -0.8]]}'
    proc = run_cli("density", "eval", "--beta", "1", stdin=doc)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["in_support"] is True
    assert out["boundary"] is True
    assert out["log_density"] is None
    assert out["density"] is None


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


def test_density_mc_compare_uses_the_radius(capsys):
    argv = ["density", "mc-compare", "--trials", "100000", "--seed", SEED, "--radius", "9"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["params"]["radius"] == 9.0


def test_density_mc_compare_is_byte_identical_across_workers():
    args = ("density", "mc-compare", "--trials", "100000", "--seed", SEED)
    one = run_cli(*args, "--workers", "1")
    two = run_cli(*args, "--workers", "2")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


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


def _loaded_by_importing_the_cli(module):
    code = f"import sys, openrmt.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_importing_the_cli_leaves_scipy_unloaded():
    assert not _loaded_by_importing_the_cli("scipy")


def test_importing_the_cli_leaves_mpmath_unloaded():
    assert not _loaded_by_importing_the_cli("mpmath")


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # the batched seeding builds its numpy.random subclass on first use
    assert not _loaded_by_importing_the_cli("numpy.random")


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # experiments imports ProcessPoolExecutor only when workers > 1
    assert not _loaded_by_importing_the_cli("concurrent.futures.process")


def test_in_process_calls_honour_a_changed_seed_variable(monkeypatch, capsys):
    """The parser is cached per default seed, so each call reads OPENRMT_SEED afresh."""
    argv = ["verify", "roundtrip", "--trials", "2", "--max-n", "2"]
    seeds = []
    for seed in ("11", "12", "11"):
        monkeypatch.setenv("OPENRMT_SEED", seed)
        assert cli.main(argv) == 0
        seeds.append(json.loads(capsys.readouterr().out)["seed"])
    assert seeds == [11, 12, 11]


def test_dump_writes_non_finite_residuals_as_null():
    rec = {"trial": 3, "in_S": False, "clause": "count", "kappa_check_residual": math.inf}
    assert cli._dump(rec) == '{"clause": "count", "in_S": false, "kappa_check_residual": null, "trial": 3}'
    assert cli._dump({"zeros": [[math.nan, 0.0, "resonance"]]}) == '{"zeros": [[null, 0.0, "resonance"]]}'
    assert cli._dump({"kappa_check_residual": 1e-15}) == '{"kappa_check_residual": 1e-15}'


@pytest.mark.parametrize("spec", ["point:nan", "chi:nan:1", "chi:3:nan", "point:inf", "uniform:0.5:inf"])
def test_non_finite_kappa_is_a_usage_error(capsys, spec):
    assert cli.main(["sample", "--kappa", spec, "--trials", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: kappa parameters must be finite")


@pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--beta", "inf"), ("--gamma", "nan"), ("--gamma", "inf")])
def test_non_finite_model_parameters_are_usage_errors(capsys, tmp_path, flag, value):
    points = tmp_path / "points.json"
    points.write_text('{"points": [[4.0, 0.0], [-2.0, 0.0]]}')
    for argv in (["density", "eval", "--input", str(points)], ["sample", "--trials", "2"]):
        assert cli.main([*argv, flag, value]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "finite" in out.err


@pytest.mark.parametrize(
    "a, b, message",
    [
        ("2", "inf", "b[0] = inf must be finite"),
        ("inf", "0", "a[0] = inf must be finite"),
        ("2", "nan", "b[0] = nan must be finite"),
    ],
)
def test_spectrum_names_a_non_finite_coefficient(capsys, a, b, message):
    assert cli.main(["spectrum", "--a", a, "--b", b]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "a, b, status, message",
    [
        # a_1^2 overflows: the ladder and the linearization carry inf, and the solve refuses it
        ("1e300", "1e300", 1, "Array must not contain infs or NaNs"),
        # every entry finite, but the zeros fail their residual certificate
        ("1e200,2", "1e200,3", 1, "root residuals exceed tolerance for degree 4 input"),
    ],
)
def test_spectrum_of_huge_coefficients_is_one_error_line(a, b, status, message):
    proc = run_cli("spectrum", "--a", a, "--b", b)
    assert proc.returncode == status
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "a, b, stderr",
    [
        # the true small zeros, a complex pair of modulus ~1.7e-80, are lost in float64
        ("1e80,2", "1,1", "warning: 2 zeros dropped within 1e-10 of the origin, expected 0\n"),
        # the trailing free level puts two exact zeros at the origin
        ("0.5,1", "0.3,0", ""),
        # kappa = 1 puts one exact zero at the origin
        ("0.7,1", "0.2,0.4", ""),
    ],
)
def test_spectrum_warns_when_more_zeros_are_dropped_than_expected(a, b, stderr):
    proc = run_cli("spectrum", f"--a={a}", f"--b={b}")
    assert proc.returncode == 0
    assert proc.stderr == stderr
    assert json.loads(proc.stdout)["clause"] == ("count" if stderr else None)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["normalize", "--radius", "0.5"], "radius must be greater than 1, got 0.5"),
        (["normalize", "--radius", "nan"], "radius must be greater than 1, got nan"),
        (["mc-compare", "--trials", "100000", "--radius", "1"], "radius must be greater than 1, got 1.0"),
        (["mc-compare", "--trials", "100000", "--bins", "0"], "bins must be at least 1, got 0"),
    ],
)
def test_degenerate_density_geometry_is_a_usage_error(capsys, argv, message):
    assert cli.main(["density", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("suite", ["identities", "jacobian", "roundtrip", "membership"])
def test_verify_rejects_negative_trials_and_empty_sizes(capsys, suite):
    for flag, value, message in (
        ("--trials", "-3", "--trials must be at least 0, got -3"),
        ("--max-n", "0", "--max-n must be at least 1, got 0"),
    ):
        assert cli.main(["verify", suite, flag, value]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"


# sha256 over the draw-only fields of `sample --n 3 --trials 300 --seed 7`:
# the determinism contract, pinned without the LAPACK-dependent zeros
DRAW_DIGESTS = {
    "point:1": "f0c3d6748e017bd426f5528ba7de15088dd7c0bbbd4273b8f8e21506488a22eb",
    "uniform:0.5:2": "b143a6ea5475b5ae18a35b3946d3a0bad41b56e6b4b27d809ca2b07d983ac67a",
    "chi:3:0.5": "f39b217f484ea058eecf57b351c8136d3734d22ad043d2380d25d0eb3d0cff4a",
}


@pytest.mark.parametrize("spec", sorted(DRAW_DIGESTS))
def test_sample_draws_match_the_pinned_digest(capsys, spec):
    argv = ["sample", "--n", "3", "--trials", "300", "--seed", "7", "--kappa", spec]
    assert cli.main(argv) == 0
    digest = hashlib.sha256()
    lines = capsys.readouterr().out.splitlines()
    for line in lines:
        rec = json.loads(line)
        fields = [rec[k] for k in ("trial", "s", "t", "kappa", "a", "b")]
        digest.update(json.dumps(fields).encode() + b"\n")
    assert len(lines) == 300
    assert digest.hexdigest() == DRAW_DIGESTS[spec]

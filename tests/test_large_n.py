"""The sampler path at block sizes beyond the acceptance tests (n up to 48).

Zeros come from the 2n x 2n linearization on this path, so they stay
accurate where the monomial route loses digits: every sampled record is
admissible, and its eigenvalue-type zeros match a finite section of the
operator to the criterion-2 tolerance.
"""

import json

import numpy as np
import pytest

from openrmt import (
    EnsembleParams,
    JacobiCoefficients,
    KappaDistribution,
    cli,
    eigenvalues_outside_band,
    joukowsky,
    run_resonance_sampling,
)
from openrmt import RandomStream, spectra
from openrmt.ensembles import sample_coupled_trials
from openrmt.experiments import SamplingResult, _pipeline_chunk
from openrmt.jacobi import coupled_coefficients, perturbation_orders

SEED = 271828
CHI = KappaDistribution("chi", (3.0, 0.5))


@pytest.mark.parametrize("n", [16, 32, 48])
def test_sampled_zeros_match_finite_sections(n):
    """Joukowsky images of outside zeros vs a 2000 x 2000 section, to 1e-6.

    gamma = 1.5 widens the block spectrum past the band, so most samples
    carry eigenvalues outside [-2.01, 2.01] on both routes.
    """
    result = run_resonance_sampling(EnsembleParams(2.0, n, 1.5, CHI), 8, SEED)
    assert not result.failures
    worst = 0.0
    matched = 0
    for rec in result.records:
        assert rec["in_S"] is True and rec["kappa_check_residual"] < 1e-9
        images = sorted(
            joukowsky(re).real
            for re, im, _ in rec["zeros"]
            if im == 0 and abs(re) > 1.001 and abs(joukowsky(re).real) > 2.01
        )
        coeffs = JacobiCoefficients(tuple(rec["a"]), tuple(rec["b"]))
        section = eigenvalues_outside_band(coeffs, size=2000, margin=0.01)
        assert len(images) == len(section)
        matched += len(images)
        if images:
            worst = max(worst, float(np.max(np.abs(np.array(images) - section))))
    assert matched >= 8
    assert worst < 1e-6


def test_sample_n32_has_no_failing_record(capsys, tmp_path):
    """Every record is in S, and `spectrum` on its coefficients gives the same zeros."""
    assert cli.main(["sample", "--n", "32", "--trials", "100", "--seed", "7"]) == 0
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines()]
    assert len(records) == 100
    for rec in records:
        assert "error" not in rec
        assert rec["in_S"] is True and rec["clause"] is None
        assert rec["kappa_check_residual"] <= 1e-9
    assert out.err == ""
    path = tmp_path / "coeffs.json"
    for rec in records:
        path.write_text(json.dumps({"a": rec["a"], "b": rec["b"]}))
        assert cli.main(["spectrum", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["in_S"] is True and doc["zeros"] == rec["zeros"]


@pytest.mark.parametrize("n, kappa", [(3, CHI), (8, CHI), (3, KappaDistribution("point", (1.0,)))])
def test_records_do_not_depend_on_chunk_bounds(n, kappa):
    params = EnsembleParams(2.0, n, 1.0, kappa)

    def result(*bounds):
        return SamplingResult([_pipeline_chunk((params, SEED, lo, hi)) for lo, hi in bounds])

    whole, split = result((0, 512)), result((0, 137), (137, 512))
    assert [cli._dump(rec) for rec in whole.records] == [cli._dump(rec) for rec in split.records]
    assert whole.failures == split.failures
    assert whole.json_lines() == split.json_lines()


def test_row_blocks_do_not_change_zeros_or_verdicts(monkeypatch):
    """Stacks split into blocks of a few rows give the rows of one whole stack."""
    s, t, kappa = sample_coupled_trials(
        EnsembleParams(2.0, 8, 1.0, CHI), RandomStream(SEED).generators(0, 40)
    )
    a, b, failures = coupled_coefficients(s, t, 1.0, kappa)
    assert not failures
    whole_zeros, _ = spectra.linearization_zeros(a, b)
    whole = spectra.resolve_rows(whole_zeros, perturbation_orders(a, b))
    monkeypatch.setattr(spectra, "STACK_BUDGET", 3 * 16 * 16)
    assert len(spectra._row_blocks(40, 16)) == 14
    zeros, root_failures = spectra.linearization_zeros(a, b)
    rows = spectra.resolve_rows(zeros, perturbation_orders(a, b))
    assert not root_failures and not rows.failures
    assert np.array_equal(zeros, whole_zeros)
    assert np.array_equal(rows.points, whole.points, equal_nan=True)
    assert rows.clause == whole.clause and rows.detail == whole.detail

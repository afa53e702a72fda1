"""The `sample` line writer against the record dicts and the sorted-key encoder.

SamplingResult.json_lines renders records straight from the chunk
arrays, formatting each distinct float once.  The oracle is the record
dicts (SamplingResult.records and .failures) encoded one by one with
cli._dump, which is how every record was written before.
"""

import json
import math

import numpy as np
import pytest

from openrmt import EnsembleParams, KappaDistribution, cli, experiments
from openrmt.experiments import (
    SamplingResult,
    _float_texts,
    _pipeline_chunk,
    _record_dicts,
    _record_lines,
    _TrialBatch,
    run_resonance_sampling,
)
from openrmt.spectra import ConjugationError, ResolvedRows

SEED = 7
LAWS = ["point:1", "point:1.5", "uniform:0.5:2", "chi:3:0.5"]


def _oracle(result: SamplingResult) -> list[str]:
    return [cli._dump(rec) for rec in result.records + result.failures]


@pytest.mark.parametrize("n, trials", [(1, 300), (3, 300), (8, 120), (32, 12)])
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("law", LAWS)
def test_lines_match_the_encoded_records(n, trials, beta, law):
    result = run_resonance_sampling(
        EnsembleParams(beta, n, 1.0, KappaDistribution.from_spec(law)), trials, SEED
    )
    lines = result.json_lines()
    assert len(lines) == trials
    assert lines == _oracle(result)
    if law == "point:1":  # the origin zero is dropped: 2n - 1 zeros per record
        assert all(len(rec["zeros"]) == 2 * n - 1 for rec in result.records)
    if n == 1:
        assert all('"t": [], ' in line for line in lines)


@pytest.mark.parametrize(
    "beta, n, gamma, start, stop",
    [
        (2.0, 3, 0.5, 0, 200),
        (4.0, 1, 2.5, 0, 200),
        # beta = 1, gamma = 3: trials 176 and 549 are rejected (iii.c, iv.c) by
        # the clause checks at the time of writing (ROADMAP item 1)
        (1.0, 8, 3.0, 170, 180),
        (1.0, 8, 3.0, 545, 555),
    ],
)
def test_lines_match_at_other_couplings(beta, n, gamma, start, stop):
    params = EnsembleParams(beta, n, gamma, KappaDistribution("chi", (3.0, 0.5)))
    result = SamplingResult([_pipeline_chunk((params, SEED, start, stop))])
    assert result.json_lines() == _oracle(result)


def test_rejected_rows_carry_their_clause(monkeypatch):
    real = experiments.resolve_rows

    def some_rows_fail(roots, k):
        rows = real(roots, k)
        rows.clause[0], rows.clause[3] = "ii", "iv.c"
        return rows

    monkeypatch.setattr(experiments, "resolve_rows", some_rows_fail)
    params = EnsembleParams(2.0, 3, 1.0, KappaDistribution("chi", (3.0, 0.5)))
    result = run_resonance_sampling(params, 20, SEED)
    lines = result.json_lines()
    assert lines == _oracle(result)
    assert '"clause": "ii", "in_S": false' in lines[0]
    assert '"clause": "iv.c", "in_S": false' in lines[3]
    assert '"clause": null, "in_S": true' in lines[1]
    assert result.rejections() == {"ii": 1, "iv.c": 1}


def test_float_texts_is_repr_or_null_for_every_bit_pattern():
    rng = np.random.default_rng(5)
    bits = rng.integers(-(2**63), 2**63 - 1, size=4000, dtype=np.int64, endpoint=True)
    special = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 1e-05, -1e-05, 1e16, 1e22,
               5e-324, -5e-324, 1.7976931348623157e308, 0.1, -0.1, 1.0, -1.0]
    values = np.concatenate([bits.view(np.float64), special, special])
    want = [repr(x) if math.isfinite(x) else "null" for x in values.tolist()]
    assert _float_texts(values).tolist() == want


def _hand_batch() -> _TrialBatch:
    """Two n = 2 rows holding signed zeros, non-finite values and exponent forms."""
    s = np.array([[-0.0, 0.0], [1e16, -1e22]])
    t = np.array([[1e-05], [math.nan]])
    kappa = np.array([-0.0, 1e22])
    a = np.array([[1e-05, 0.5], [math.inf, 2.0]])
    b = np.array([[0.0, -0.0], [-math.inf, 1e16]])
    points = np.array(
        [
            [-1.5 + 0j, complex(0.25, -0.0), complex(0.25, 0.0), np.nan],
            [complex(-0.0, 1e-05), complex(-0.0, -1e-05), complex(3.0, 0.0), 1e22 + 0j],
        ]
    )
    rows = ResolvedRows(points, np.array([1, 0]), [None, "count"], ["", ""], {})
    residual = np.array([1e-05, math.inf])
    return _TrialBatch(s, t, kappa, a, b, rows, residual, {})


def test_hand_built_batch_matches_the_encoder():
    batch = _hand_batch()
    lines = _record_lines(40, batch)
    assert lines == [cli._dump(rec) for rec in _record_dicts(40, batch)]
    assert lines[0] == (
        '{"a": [1e-05, 0.5], "b": [0.0, -0.0], "clause": null, "in_S": true, "kappa": -0.0, '
        '"kappa_check_residual": 1e-05, "s": [-0.0, 0.0], "t": [1e-05], "trial": 40, '
        '"zeros": [[-1.5, 0.0, "eigenvalue"], [0.25, -0.0, "resonance"], [0.25, 0.0, "resonance"]]}'
    )
    assert lines[1] == (
        '{"a": [null, 2.0], "b": [null, 1e+16], "clause": "count", "in_S": false, '
        '"kappa": 1e+22, "kappa_check_residual": null, "s": [1e+16, -1e+22], "t": [null], '
        '"trial": 41, "zeros": [[-0.0, 1e-05, "resonance"], [-0.0, -1e-05, "resonance"], '
        '[3.0, 0.0, "eigenvalue"], [1e+22, 0.0, "eigenvalue"]]}'
    )


def test_library_records_keep_an_infinite_residual(monkeypatch):
    # a wrong expected count makes every row clause "count" with residual inf
    monkeypatch.setattr(experiments, "perturbation_orders", lambda a, b: np.full(len(a), 99))
    params = EnsembleParams(2.0, 3, 1.0, KappaDistribution("chi", (3.0, 0.5)))
    result = run_resonance_sampling(params, 5, SEED)
    assert [rec["kappa_check_residual"] for rec in result.records] == [math.inf] * 5
    assert all(rec["clause"] == "count" and rec["in_S"] is False for rec in result.records)
    lines = result.json_lines()
    assert lines == _oracle(result)
    assert all('"kappa_check_residual": null' in line for line in lines)


def test_records_match_the_batch_arrays():
    """The record dicts hold the chunk's draws and configurations, floats as floats."""
    params = EnsembleParams(2.0, 3, 1.0, KappaDistribution("point", (1.0,)))
    start, batch = _pipeline_chunk((params, SEED, 10, 30))
    records = SamplingResult([(start, batch)]).records
    assert [rec["trial"] for rec in records] == list(range(10, 30))
    for i, rec in enumerate(records):
        config = batch.rows.configuration(i)
        assert rec["zeros"] == [[z.real, z.imag, lab] for z, lab in zip(config.points, config.labels)]
        assert (rec["s"], rec["t"], rec["a"], rec["b"]) == (
            batch.s[i].tolist(), batch.t[i].tolist(), batch.a[i].tolist(), batch.b[i].tolist()
        )
        assert type(rec["kappa"]) is float and rec["kappa"] == 1.0
        assert rec["in_S"] is True and rec["clause"] is None
        assert type(rec["kappa_check_residual"]) is float


def test_failures_follow_every_good_record(monkeypatch, capsys):
    real = experiments.resolve_rows

    def rows_fail(roots, k):
        rows = real(roots, k)
        for i in np.array([3, 1]):  # numpy int keys, as np.flatnonzero gives, out of order
            if i < len(rows.points):
                rows.failures[i] = ConjugationError(f"root {i} has no conjugate partner")
        return rows

    monkeypatch.setattr(experiments, "resolve_rows", rows_fail)
    monkeypatch.setattr(experiments, "MAX_FAILURE_RATE", 1.0)
    monkeypatch.setattr(experiments, "TRIAL_CHUNK", 5)
    argv = ["sample", "--n", "2", "--trials", "12", "--seed", str(SEED)]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    failed = [1, 3, 6, 8, 11]  # rows 1 and 3 of each chunk of 5 (the last holds 2)
    good = [trial for trial in range(12) if trial not in failed]
    assert [json.loads(line)["trial"] for line in lines] == good + failed
    assert lines[len(good):] == [
        f'{{"error": "ConjugationError: root {trial % 5} has no conjugate partner", "trial": {trial}}}'
        for trial in failed
    ]
    params = EnsembleParams(2.0, 2, 1.0, KappaDistribution("chi", (3.0, 0.5)))
    result = run_resonance_sampling(params, 12, SEED)
    assert lines == result.json_lines() == _oracle(result)
    assert all(type(rec["trial"]) is int for rec in result.failures)
    assert out.err == ""


def test_too_many_failures_abort_before_writing(monkeypatch, capsys):
    real = experiments.resolve_rows

    def row_fails(roots, k):
        rows = real(roots, k)
        rows.failures[np.intp(0)] = ConjugationError("unpaired")
        return rows

    monkeypatch.setattr(experiments, "resolve_rows", row_fails)
    assert cli.main(["sample", "--n", "2", "--trials", "10", "--seed", str(SEED)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: 1 of 10 sampling trials failed\n"


def test_zero_trials_write_nothing(capsys, tmp_path):
    csv_path = tmp_path / "zeros.csv"
    assert cli.main(["sample", "--trials", "0", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""
    assert csv_path.read_bytes() == b"trial,re,im,label\r\n"


def test_csv_and_warning_come_from_the_one_run(monkeypatch, capsys, tmp_path):
    real_batch, real_rows = experiments._trial_batch, experiments.resolve_rows
    batches = []

    def counted_batch(params, streams):
        batches.append(len(streams))
        return real_batch(params, streams)

    def rows_reject_and_fail(roots, k):
        rows = real_rows(roots, k)
        rows.clause[0], rows.clause[2], rows.clause[3] = "ii", "iv.c", "ii"
        rows.failures[np.intp(2)] = ConjugationError("unpaired")
        return rows

    monkeypatch.setattr(experiments, "_trial_batch", counted_batch)
    monkeypatch.setattr(experiments, "resolve_rows", rows_reject_and_fail)
    monkeypatch.setattr(experiments, "MAX_FAILURE_RATE", 1.0)
    monkeypatch.setattr(experiments, "TRIAL_CHUNK", 8)
    csv_path = tmp_path / "zeros.csv"
    argv = ["sample", "--n", "3", "--trials", "20", "--seed", str(SEED), "--csv", str(csv_path)]
    assert cli.main(argv) == 0
    assert batches == [8, 8, 4]
    out = capsys.readouterr()
    # row 2 of each chunk failed, so its clause is not counted
    assert out.err == "warning: 6 of 17 records not in S (ii: 6)\n"
    records = [json.loads(line) for line in out.out.splitlines()]
    want = ["trial,re,im,label"] + [
        f"{rec['trial']},{re!r},{im!r},{label}"
        for rec in records
        if "error" not in rec
        for re, im, label in rec["zeros"]
    ]
    assert csv_path.read_bytes() == "".join(row + "\r\n" for row in want).encode()
    assert [rec["trial"] for rec in records if "error" in rec] == [2, 10, 18]


def test_results_compare_by_records_and_failures():
    params = EnsembleParams(2.0, 3, 1.0, KappaDistribution("chi", (3.0, 0.5)))
    one = run_resonance_sampling(params, 30, SEED)
    assert one == run_resonance_sampling(params, 30, SEED)
    assert one == SamplingResult([_pipeline_chunk((params, SEED, lo, lo + 10)) for lo in (0, 10, 20)])
    assert one != run_resonance_sampling(params, 30, SEED + 1)
    assert one != run_resonance_sampling(params, 29, SEED)

"""Self-tests of the benchmark's arithmetic and checks.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker

SRC = Path(__file__).resolve().parents[1] / "src"


def _span(name, start, end, parent, error=False):
    return (name, start, end, parent, error)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 3.5, 6.0, 0),  # overlaps a: the union 1..6 is covered once
        _span("c", 9.0, 12.0, 0),  # runs past the parent: only 9..10 counts
        _span("other_root", 20.0, 21.0, -1),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 1.0, 2.5, 3.0, 1.0])


def test_layer_metrics_sum_self_time_and_count_errors():
    tracer = tracing.Tracer()
    tracer.spans = [
        _span("cli.cmd_sample", 0.0, 1.0, -1),
        _span("spectra.polynomial_roots", 0.1, 0.4, 0),
        _span("spectra.polynomial_roots", 0.5, 0.6, 0, error=True),
        _span("spectra.is_in_S", 0.7, 0.8, 0),
    ]
    tracer.fallbacks = 1
    tracer.accepts = 1
    got = {name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}
    assert got["cli.cmd_sample.self_s"] == pytest.approx(0.5)
    assert got["spectra.polynomial_roots.calls"] == 2
    assert got["spectra.polynomial_roots.self_s"] == pytest.approx(0.4)
    assert got["spectra.polynomial_roots.errors"] == 1
    assert got["spectra.polynomial_roots.p50_ms"] == pytest.approx(100.0)  # nearest rank
    assert got["spectra.polynomial_roots.fallback_ratio"] == 0.5
    assert got["spectra.is_in_S.accept_ratio"] == 1.0
    assert got["geronimo_case.gc_inverse.calls"] == 0


@pytest.mark.parametrize(
    "count, pct, value",
    [(0, 0.0, 0.0), (19, 0.0, 0.0), (20, 50.0, 10.0), (99, 50.0, 50.0), (100, 90.0, 90.0),
     (999, 90.0, 900.0), (1000, 99.0, 990.0), (10_000, 99.9, 9990.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, pct, value):
    samples = [float(i + 1) for i in range(count)]
    assert tracing.tail(samples) == (pct, value)
    if pct:
        assert sum(1 for x in samples if x > value) >= tracing.TAIL_MIN_BEYOND


def _records(recs):
    return "".join(json.dumps(r) + "\n" for r in recs).encode()


GOOD = {"trial": 0, "in_S": True, "clause": None, "kappa_check_residual": 1e-14}


def test_failed_fraction_counts_error_in_s_count_and_residual_records():
    recs = [
        GOOD,
        dict(GOOD, trial=1),
        {"trial": 2, "error": "RootFindingError: no convergence"},
        dict(GOOD, trial=3, in_S=False, clause="ii"),
        dict(GOOD, trial=4, in_S=False, clause="count", kappa_check_residual=None),
        dict(GOOD, trial=5, kappa_check_residual=2e-9),
        dict(GOOD, trial=6, kappa_check_residual=None),
    ]
    failed, reasons, gates, _ = worker.score("sample", len(recs), 0, _records(recs))
    assert gates == []
    assert failed == 5
    assert reasons == {"error": 1, "in_S:ii": 1, "in_S:count": 1, "kappa_residual": 2}


@pytest.mark.parametrize(
    "data, gate",
    [
        (_records([GOOD]), "1 records for 2 trials"),
        (_records([GOOD]) + b"{not json\n", "1 records are not valid JSON"),
    ],
)
def test_a_failed_sample_gate_fails_every_item(data, gate):
    failed, reasons, gates, _ = worker.score("sample", 2, 0, data)
    assert gates == [gate]
    assert failed == 2 and reasons == {"gate": 2}


def test_a_nonzero_exit_fails_every_item_without_a_gate():
    failed, reasons, gates, _ = worker.score("sample", 2, 1, _records([GOOD, GOOD]))
    assert gates == []
    assert failed == 2 and reasons == {"exit:1": 2}


def test_suite_gates_and_clock_free_digest():
    def report(passed, elapsed):
        return json.dumps(
            {"trials": 200, "passed": passed, "verdicts": {"max_rel_error": passed},
             "statistics": {"max_rel_error": 0.0, "elapsed_seconds": elapsed}}
        ).encode()

    failed, _, gates, first = worker.score("suite", 200, 0, report(True, 0.31))
    _, _, _, second = worker.score("suite", 200, 0, report(True, 0.47))
    assert (failed, gates) == (0, [])
    assert first == second
    failed, reasons, gates, _ = worker.score("suite", 200, 1, report(False, 0.3))
    assert gates == []
    assert failed == 200 and reasons == {"verdict:max_rel_error": 200}
    failed, _, gates, _ = worker.score("suite", 100, 0, report(True, 0.3))
    assert failed == 100 and gates == ["report has 200 trials, expected 100"]
    failed, _, gates, _ = worker.score("suite", 200, 2, b"")
    assert failed == 200 and gates == ["output is not one JSON object"]


def test_items_per_ref_divides_out_machine_speed():
    call = {"items": 512, "cpu_seconds": 0.5, "ref_seconds": 0.05}
    slower_host = {"items": 512, "cpu_seconds": 0.6, "ref_seconds": 0.06}
    faster_program = {"items": 512, "cpu_seconds": 0.25, "ref_seconds": 0.05}
    assert run.items_per_ref(call) == pytest.approx(51.2)
    assert run.items_per_ref(slower_host) == pytest.approx(51.2)
    assert run.items_per_ref(faster_program) == pytest.approx(102.4)
    assert {spec[3] for spec in worker.WORKLOADS.values()} <= set(worker.REFERENCES)


def test_call_seeds_depend_only_on_seed_and_index():
    assert worker.call_seed(7, 3) == worker.call_seed(7, 3)
    assert len({worker.call_seed(s, i) for s in range(5) for i in range(50)}) == 250


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(SRC))
    try:
        import openrmt
        import openrmt.cli
        from openrmt import experiments, spectra
    finally:
        sys.path.remove(str(SRC))
    original = spectra.polynomial_roots
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bindings = (openrmt.polynomial_roots, openrmt.cli.polynomial_roots,
                    experiments.polynomial_roots, spectra.polynomial_roots)
        assert all(b is not original for b in bindings)
        coeffs = experiments.random_coefficients(openrmt.RandomStream(5), 2)
        roots = openrmt.cli.polynomial_roots(openrmt.gc_forward(coeffs).final)
    finally:
        tracer.uninstall()
    assert spectra.polynomial_roots is original and openrmt.cli.polynomial_roots is original
    assert tracer.missing == []
    names = [span[0] for span in tracer.spans]
    assert names == [
        "experiments.random_coefficients", "geronimo_case.gc_forward", "spectra.polynomial_roots"
    ]
    assert len(roots) == 4 and tracer.fallbacks == 0

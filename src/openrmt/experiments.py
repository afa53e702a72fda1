"""Monte Carlo experiment runner and statistical verification suites.

Two independent kinds of evidence are collected here.  Algebraic suites
(round trip, identities, Jacobians) check exact statements on random
inputs and must hold to tight tolerances.  Statistical suites compare
sampled spectra against their predicted laws (KS tests, moment checks,
and a binned comparison against the closed-form n=1 joint density).

All randomness is derived from substreams of a single seed, one per trial
(density_mc_compare_n1: one per MC_CHUNK samples), so every report is a
pure function of (seed, parameters) regardless of the worker count used
to produce it.  sum_zeros_test and
dense_vs_tridiagonal_test use alpha = 0.01 with one logged retry on fresh
substreams; semicircle_moment_test and density_mc_compare_n1 never retry.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .density import _real_products, log_density_batch
from .ensembles import (
    DEFAULT_KAPPA,
    EnsembleParams,
    KappaDistribution,
    RandomStream,
    UnsupportedVariantError,
    _dense_gaussian,
    householder_tridiagonalize,
    sample_coupled_trials,
    sample_kappa,
)
from .geronimo_case import _forward_steps, gc_inverse_blocks, lstar_blocks, lstar_rows
from .identities import (
    MAX_TOTAL_JACOBIAN_N,
    TOL_IDENTITY,
    TOL_IDENTITY_V,
    TOL_IDENTITY_V_IMAG,
    TOL_JACOBIAN,
    identity_residuals,
    step_jacobian_residuals,
    total_jacobian_residuals,
)
from .jacobi import (
    JacobiCoefficients,
    TruncatedOperator,
    coupled_coefficients,
    perturbation_orders,
    tridiag_eigenvalues,
)
from .spectra import (
    EIGENVALUE,
    RESONANCE,
    ResolvedRows,
    companion_roots,
    linearization_zeros,
    polynomial_roots,  # noqa: F401  (perfbench's tracer wraps this name)
    resolve_rows,
)

ALPHA = 0.01
ROUNDTRIP_PRECISION = 40
ROUNDTRIP_TOL = 1e-8
KAPPA_IDENTITY_TOL = 1e-9
MAX_FAILURE_RATE = 1e-3
TRIAL_CHUNK = 1024
MIN_TRIAL_CHUNK = 256
# entries of one chunk's stacked (2n, 2n) linearizations, 512 KB of float64:
# at n = 8, 1024-trial chunks (2 MB stacks) ran 8% slower than 256-trial ones
# (in-process A/B, 40 rounds, 2-core x86-64 host, OpenBLAS SkylakeX kernel)
CHUNK_BUDGET = 1 << 16
MC_CHUNK = 1 << 15
QUAD_NODES = 200
FINE_GRID = 768
STRIP_ROWS = 32
DEFAULT_RADIUS = 6.0
TAIL_LIMIT = 1e-4
MIN_EXPECTED_COUNT = 100.0
BIN_TARGET_COUNT = 2000.0
GENERIC_STRATUM_GAP = 1e-3


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one named experiment, JSON-friendly and reproducible."""

    name: str
    trials: int
    seed: int
    params: dict
    statistics: dict
    verdicts: dict
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "seed": self.seed,
            "params": self.params,
            "statistics": self.statistics,
            "verdicts": self.verdicts,
            "notes": list(self.notes),
            "passed": self.passed,
        }


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunked(fn: Callable, args_list: list, workers: int) -> Iterator:
    """Yield fn over the argument list, in order, optionally computed in processes.

    The pool holds at most one process per chunk and per usable CPU: under
    fork it starts all of them on the first submit, whatever the request.
    """
    if workers <= 1 or len(args_list) <= 1:
        yield from map(fn, args_list)
        return
    from concurrent.futures import ProcessPoolExecutor  # only here: loads multiprocessing

    with ProcessPoolExecutor(max_workers=min(workers, len(args_list), _usable_cpus())) as pool:
        yield from pool.map(fn, args_list)


def _chunk_bounds(start: int, stop: int, workers: int, n: int) -> list[tuple[int, int]]:
    """The (lo, hi) trial ranges of a stacked driver over trials start..stop - 1.

    A range holds ceil(trials / workers) trials, so each worker runs one
    stacked pass, but at most TRIAL_CHUNK; as n grows the cap falls so
    that a range's (2n, 2n) linearizations hold about CHUNK_BUDGET
    entries, though never below MIN_TRIAL_CHUNK trials (from n = 8 on).
    Every row depends on its own substream alone, so the ranges never
    change a result.
    """
    limit = min(TRIAL_CHUNK, max(MIN_TRIAL_CHUNK, CHUNK_BUDGET // (2 * n) ** 2))
    step = max(1, min(-(-(stop - start) // max(workers, 1)), limit))
    return [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


def _trial_generators(seed: int, start: int, stop: int, n: int):
    """The generators of substreams start..stop - 1 of the seed, built one chunk at a time."""
    for lo, hi in _chunk_bounds(start, stop, 1, n):
        yield from RandomStream(seed).generators(lo, hi)


def _block_chunks(params: EnsembleParams, seed: int, start: int, stop: int):
    """Blocks s (T, n), t (T, n - 1) of the substreams start..stop - 1, one chunk at a time."""
    for lo, hi in _chunk_bounds(start, stop, 1, params.n):
        yield sample_coupled_trials(params, RandomStream(seed).generators(lo, hi))[:2]


def _draw_coefficients(gen: np.random.Generator, n: int, avoid_unit_last_a: bool = True):
    """Arrays a in (0.1, 3) and b in (-3, 3) of n random perturbed coefficients.

    The last a is redrawn while it sits within 1e-3 of 1 so the top
    recursion level never degenerates (the inverse map divides by the
    perturbation strength of that level).
    """
    a = gen.uniform(0.1, 3.0, n)
    b = gen.uniform(-3.0, 3.0, n)
    if avoid_unit_last_a:
        while abs(a[-1] - 1.0) < 1e-3:
            a[-1] = gen.uniform(0.1, 3.0)
    return a, b


def random_coefficients(stream: RandomStream, n: int, avoid_unit_last_a: bool = True) -> JacobiCoefficients:
    """Random perturbed coefficients of one substream, as drawn by _draw_coefficients."""
    a, b = _draw_coefficients(stream.generator, n, avoid_unit_last_a)
    return JacobiCoefficients(tuple(a.tolist()), tuple(b.tolist()))


def _draw_trials(seed: int, trials: int, max_n: int, avoid_unit_last_a: bool = True):
    """One coefficient set per substream, n uniform on 1..max_n, grouped by n.

    Returns {n: (trial indices, a, b)} with a, b (rows, n) in trial order,
    n ascending.
    """
    ns = np.empty(trials, dtype=int)
    a, b = np.empty((trials, max_n)), np.empty((trials, max_n))
    for trial, gen in enumerate(_trial_generators(seed, 0, trials, max_n)):
        n = ns[trial] = int(gen.integers(1, max_n + 1))
        a[trial, :n], b[trial, :n] = _draw_coefficients(gen, n, avoid_unit_last_a)
    groups = {n: np.flatnonzero(ns == n) for n in np.unique(ns).tolist()}
    return {n: (rows, a[rows, :n], b[rows, :n]) for n, rows in groups.items()}


@dataclass(frozen=True)
class _TrialBatch:
    """One array-first pass over stacked trials (see :func:`_trial_batch`)."""

    s: np.ndarray
    t: np.ndarray
    kappa: np.ndarray
    a: np.ndarray
    b: np.ndarray
    rows: ResolvedRows
    residual: np.ndarray
    failures: dict


def _trial_batch(params: EnsembleParams, gens: list) -> _TrialBatch:
    """Block, coupling, coefficients, zeros and verdicts of one trial per generator.

    Every stage runs on the stacked rows: one linearization eigenvalue
    solve for all zeros, one array pass for all verdicts.  Row i depends
    on gens[i] alone.  failures maps a row to the first exception of
    its trial (bad coefficients, failed root certificate, unpaired
    roots).  The coupling residual compares kappa with sqrt(1 - prod z_j)
    over all 2n zeros, so any dropped origin zero makes the product 0; it
    is inf for a row with the wrong point count.
    """
    s, t, kappa = sample_coupled_trials(params, gens)
    a, b, failures = coupled_coefficients(s, t, params.gamma, kappa)
    zeros, root_failures = linearization_zeros(a, b)
    rows = resolve_rows(zeros, perturbation_orders(a, b))
    for stage in (root_failures, rows.failures):
        for i, exc in stage.items():
            failures.setdefault(i, exc)
    prod = np.where(rows.origin_drops > 0, 0.0, _real_products(rows.points))
    residual = np.abs(kappa - np.sqrt(np.where(prod < 1.0, 1.0 - prod, np.nan)))
    residual[[c == "count" for c in rows.clause]] = math.inf
    return _TrialBatch(s, t, kappa, a, b, rows, residual, failures)


def _pipeline_chunk(args) -> tuple[int, _TrialBatch]:
    params, seed, start, stop = args
    return start, _trial_batch(params, RandomStream(seed).generators(start, stop))


def _record_dicts(start: int, batch: _TrialBatch) -> list[dict]:
    """The record of every good row of one chunk, in trial order."""
    rows = batch.rows
    # one tolist per array and chunk, not per row
    s, t, kappa, a, b, residual = (
        x.tolist() for x in (batch.s, batch.t, batch.kappa, batch.a, batch.b, batch.residual)
    )
    real, imag = rows.points.real.tolist(), rows.points.imag.tolist()
    kept = (~np.isnan(rows.points)).tolist()
    labels = np.where(rows.eigenvalue, EIGENVALUE, RESONANCE).tolist()
    return [
        {
            "trial": start + i,
            "s": s[i],
            "t": t[i],
            "kappa": kappa[i],
            "a": a[i],
            "b": b[i],
            "zeros": [
                [x, y, label] for x, y, label, keep in zip(real[i], imag[i], labels[i], kept[i]) if keep
            ],
            "in_S": rows.clause[i] is None,
            "clause": rows.clause[i],
            "kappa_check_residual": residual[i],
        }
        for i in range(len(a))
        if i not in batch.failures
    ]


_SIGN_BIT = np.int64(-(1 << 63))
_INF_BITS = np.float64(math.inf).view(np.int64)


def _float_texts(values: np.ndarray) -> np.ndarray:
    """JSON text of every float64 value (repr, null when not finite), as an object array.

    Each distinct magnitude is formatted once: values are grouped by the
    bits of |x|, so 0.0 and -0.0 stay apart, and a set sign bit puts "-"
    in front, because repr(-x) == "-" + repr(x).
    """
    bits = values.view(np.int64)
    magnitude = bits & ~_SIGN_BIT
    distinct, inverse = np.unique(magnitude, return_inverse=True)
    finite = int(np.searchsorted(distinct, _INF_BITS))  # non-finite bit patterns sort last
    text = list(map(repr, distinct[:finite].view(np.float64).tolist()))
    text += ["null"] * (len(distinct) - finite)
    out = np.array(text, dtype=object)[inverse]
    negative = (bits < 0) & (magnitude < _INF_BITS)
    out[negative] = "-" + out[negative]
    return out


def _record_template(n: int, zeros: int) -> str:
    """%-template of one good record line, newline-ended, with zeros kept points: keys sorted."""

    def seq(count: int, item: str = "%s") -> str:
        return "[" + ", ".join([item] * count) + "]"

    return (
        f'{{"a": {seq(n)}, "b": {seq(n)}, "clause": %s, "in_S": %s, "kappa": %s, '
        f'"kappa_check_residual": %s, "s": {seq(n)}, "t": {seq(n - 1)}, "trial": %s, '
        f'"zeros": {seq(zeros, "[%s, %s, %s]")}}}\n'
    )


_LABEL_TEXT = np.array([json.dumps(EIGENVALUE), json.dumps(RESONANCE)], dtype=object)
_LABELS = np.array([EIGENVALUE, RESONANCE], dtype=object)


def _chunk_text(start: int, batch: _TrialBatch, csv: bool = False) -> tuple[str, str]:
    """The JSON lines of the good rows of one chunk and, with csv, the CSV rows of their zeros.

    Both texts are in trial order, one newline-ended line per record or
    zero, each rendered by one %-format.  The JSON lines are byte for
    byte what the sorted-key encoder writes for _record_dicts(start,
    batch), non-finite floats as null; the CSV rows are what csv.writer
    writes for the trial, repr(re), repr(im) and label of each zero of
    those records.  Every float of the chunk is formatted once, by one
    _float_texts pass, into one cell table filled by column slices.
    """
    rows = batch.rows
    count, n = batch.a.shape
    points = rows.points
    zeros = points.shape[1]
    floats = np.concatenate(
        [batch.a, batch.b, batch.kappa[:, None], batch.residual[:, None], batch.s, batch.t,
         points.real, points.imag],
        axis=1,
    )
    text = _float_texts(floats.ravel()).reshape(count, -1)
    lead = 4 * n + 1  # a, b, kappa, residual, s, t
    width = lead + 3  # and the clause, in_S and trial
    verdict = {
        clause: (json.dumps(clause), "true" if clause is None else "false") for clause in set(rows.clause)
    }
    label = (~rows.eigenvalue).view(np.int8)  # 0 eigenvalue, 1 resonance
    table = np.empty((count, width + 3 * zeros), dtype=object)
    table[:, : 2 * n] = text[:, : 2 * n]
    table[:, 2 * n : 2 * n + 2] = np.array([verdict[clause] for clause in rows.clause], dtype=object)
    table[:, 2 * n + 2 : lead + 2] = text[:, 2 * n : lead]
    table[:, lead + 2] = list(map(str, range(start, start + count)))
    table[:, width::3] = text[:, lead : lead + zeros]
    table[:, width + 1 :: 3] = text[:, lead + zeros :]
    table[:, width + 2 :: 3] = _LABEL_TEXT[label]
    good = np.ones(count, dtype=bool)
    good[list(batch.failures)] = False
    kept = ~np.isnan(points) & good[:, None]  # kept points are a prefix of each row
    counts = kept.sum(axis=1)
    cells = (np.arange(table.shape[1]) < width + 3 * counts[:, None]) & good[:, None]
    ks = counts[good].tolist()
    templates = {k: _record_template(n, k) for k in set(ks)}
    json_text = "".join([templates[k] for k in ks]) % tuple(table[cells].tolist())
    if not csv:
        return json_text, ""
    parts = np.empty((count, zeros, 4), dtype=object)
    parts[:, :, 0] = table[:, lead + 2, None]
    parts[:, :, 1] = table[:, width::3]
    parts[:, :, 2] = table[:, width + 1 :: 3]
    parts[:, :, 3] = _LABELS[label]
    infinite = kept & ~np.isfinite(points)  # null in JSON, repr in CSV
    for column, values in ((1, points.real), (2, points.imag)):
        parts[infinite, column] = [repr(x) for x in values[infinite].tolist()]
    chosen = parts[kept].ravel().tolist()
    return json_text, "%s,%s,%s,%s\r\n" * (len(chosen) // 4) % tuple(chosen)


def _record_lines(start: int, batch: _TrialBatch) -> list[str]:
    """The JSON line of every good row of one chunk, in trial order (see :func:`_chunk_text`)."""
    return _chunk_text(start, batch)[0].split("\n")[:-1]


@dataclass(frozen=True, eq=False)
class SamplingResult:
    """The trials of one sampling run, kept as (first trial, _TrialBatch) per chunk.

    Built from the chunks, SamplingResult(chunks), not from record lists.
    records holds one dict per good trial and failures one error record
    per failed trial, both in trial order and built on first access;
    they are the reference the renderers are tested against.  texts and
    json_lines render the same records as JSON text, and texts also their
    zeros as CSV, straight from the chunk arrays.  Two results are equal
    when their records and failures are.
    """

    chunks: list

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.records, self.failures) == (other.records, other.failures)

    @property
    def trials(self) -> int:
        return sum(len(batch.a) for _, batch in self.chunks)

    @property
    def failed(self) -> int:
        return sum(len(batch.failures) for _, batch in self.chunks)

    @cached_property
    def records(self) -> list[dict]:
        return [rec for start, batch in self.chunks for rec in _record_dicts(start, batch)]

    @cached_property
    def failures(self) -> list[dict]:
        return [
            {"trial": start + int(i), "error": f"{type(exc).__name__}: {exc}"}
            for start, batch in self.chunks
            for i, exc in sorted(batch.failures.items())
        ]

    def rejections(self) -> Counter:
        """Count of the good records not in S, by violated clause."""
        return Counter(
            clause
            for _, batch in self.chunks
            for i, clause in enumerate(batch.rows.clause)
            if clause is not None and i not in batch.failures
        )

    def texts(self, csv: bool = False) -> Iterator[tuple[str, str]]:
        """The sample output, chunk by chunk, as (JSON lines, CSV rows) texts.

        One pair per chunk (see :func:`_chunk_text`; the CSV rows are ""
        without csv), then the failure records' JSON lines and "".
        """
        for start, batch in self.chunks:
            yield _chunk_text(start, batch, csv)
        yield "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in self.failures), ""

    def json_lines(self) -> list[str]:
        """Every record as one sorted-key JSON line: the good records by trial, then the failures."""
        return "".join(text for text, _ in self.texts()).split("\n")[:-1]


def run_resonance_sampling(
    params: EnsembleParams, trials: int, seed: int, workers: int = 1
) -> SamplingResult:
    """Sample the full pipeline, one array pass per chunk of trials, keeping zeros and checks.

    Each chunk of trials (see :func:`_chunk_bounds`: one per worker, as
    the size of n allows) runs as one _trial_batch; the result keeps the
    batches and builds record dicts or JSON lines from them on
    request.  Individual numerical failures are collected rather than
    raised, but a failure rate above 0.1 percent aborts: that level cannot
    be explained by unlucky draws near the degenerate strata.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    chunk_args = [(params, seed, lo, hi) for lo, hi in _chunk_bounds(0, trials, workers, params.n)]
    result = SamplingResult(list(_chunked(_pipeline_chunk, chunk_args, workers)))
    if trials and result.failed > MAX_FAILURE_RATE * trials:
        raise RuntimeError(f"{result.failed} of {trials} sampling trials failed")
    return result


def _membership_chunk(args) -> list[tuple]:
    betas, max_n, gamma, dist, seed, start, stop = args
    groups: dict[tuple[float, int], list] = {}
    for trial, gen in enumerate(RandomStream(seed).generators(start, stop), start):
        n = int(gen.integers(1, max_n + 1))
        groups.setdefault((betas[trial % len(betas)], n), []).append((trial, gen))
    rows = {}
    for (beta, n), members in groups.items():
        batch = _trial_batch(EnsembleParams(beta, n, gamma, dist), [gen for _, gen in members])
        for i, (trial, _) in enumerate(members):
            if i in batch.failures:
                rows[trial] = (False, math.inf, type(batch.failures[i]).__name__)
            else:
                clause = batch.rows.clause[i]
                rows[trial] = (clause is None, float(batch.residual[i]), clause)
    return [rows[trial] for trial in range(start, stop)]


def membership_suite(
    trials: int,
    seed: int,
    betas: tuple[float, ...] = (1.0, 2.0, 4.0),
    max_n: int = 5,
    gamma: float = 1.0,
    kappa_dist: KappaDistribution = DEFAULT_KAPPA,
    workers: int = 1,
) -> ExperimentReport:
    """Admissibility of every sampled configuration, across beta values.

    Trials are interleaved over the beta list; n is drawn uniformly from
    1..max_n per trial.  Checks both the membership verdict and the
    coupling identity kappa^2 = 1 - prod z_j.
    """
    chunk_args = [
        (tuple(betas), max_n, gamma, kappa_dist, seed, lo, hi)
        for lo, hi in _chunk_bounds(0, trials, workers, max_n)
    ]
    rows = [r for block in _chunked(_membership_chunk, chunk_args, workers) for r in block]
    in_s = sum(1 for ok, _, _ in rows if ok)
    max_resid = max((r for _, r, _ in rows), default=0.0)
    bad_clauses = sorted({c for ok, _, c in rows if not ok and c is not None})
    return ExperimentReport(
        name="membership",
        trials=trials,
        seed=seed,
        params={
            "betas": list(betas),
            "max_n": max_n,
            "gamma": gamma,
            "kappa": kappa_dist.spec(),
        },
        statistics={
            "in_S_count": in_s,
            "in_S_rate": in_s / trials if trials else 1.0,
            "max_kappa_residual": max_resid,
        },
        verdicts={
            "all_in_S": in_s == trials,
            "kappa_identity": max_resid < KAPPA_IDENTITY_TOL,
        },
        notes=tuple(f"violated clause {c}" for c in bad_clauses),
    )


def roundtrip_suite(trials: int, seed: int, max_n: int = 8) -> ExperimentReport:
    """Forward-then-inverse recursion must recover the coefficients.

    The inverse recursion loses roughly n digits per level on unlucky
    draws (small a values), so by default both directions run at 40
    working digits; see the precision note in the recursion module.
    Trials are drawn one substream each and run as one forward and one
    inverse ladder pass over all of them, whatever their n; a failed trial
    raises its exception, the one of the lowest trial index when several
    fail.
    """
    t0 = time.perf_counter()
    groups = _draw_trials(seed, trials, max_n)
    blocks = [(a, b) for _, a, b in groups.values()]
    results = gc_inverse_blocks(lstar_blocks(blocks, ROUNDTRIP_PRECISION), ROUNDTRIP_PRECISION)
    errors, failed = [], []
    for (rows, want_a, want_b), (got_a, got_b, failures) in zip(groups.values(), results):
        failed.extend((rows[i], exc) for i, exc in failures.items())
        want, got = np.hstack([want_a, want_b]), np.hstack([got_a, got_b])
        errors.append(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    if failed:
        raise min(failed, key=lambda item: item[0])[1]
    worst = float(max(errors, default=0.0))
    elapsed = time.perf_counter() - t0
    return ExperimentReport(
        name="roundtrip",
        trials=trials,
        seed=seed,
        params={"max_n": max_n, "precision": ROUNDTRIP_PRECISION},
        statistics={"max_rel_error": worst, "elapsed_seconds": elapsed},
        verdicts={"max_rel_error": worst < ROUNDTRIP_TOL},
    )


def identity_suite(trials: int, seed: int, max_n: int = 8) -> ExperimentReport:
    """Zero-coefficient identities over random draws, all ladder levels.

    The pair-product identity is only scored on the generic stratum
    (all |1 - z_j z_k| > 1e-3, self pairs included); rejected evaluations
    are counted.  The identity is a statement about generic configurations:
    near the degeneracy locus z_j z_k = 1 the residual blows up like
    1/|1 - z_j z_k| purely through conditioning of the double-precision
    ladder coefficients, which no amount of root refinement undoes.
    """
    pair_keys = ("identity_v", "identity_v_imag")
    elementary = ("identity_i", "identity_ii", "identity_iii", "identity_iv")
    worst = dict.fromkeys(elementary + pair_keys, 0.0)
    levels = v_scored = 0
    for _, a, b in _draw_trials(seed, trials, max_n, avoid_unit_last_a=False).values():
        for L, _ in _forward_steps(a, b, 1.0):
            res = identity_residuals(L, a, b)
            scored = res["pair_gap"] > GENERIC_STRATUM_GAP
            for key in worst:
                values = res[key][scored] if key in pair_keys else res[key]
                worst[key] = max(worst[key], float(np.max(values, initial=0.0)))
            levels += len(L)
            v_scored += int(scored.sum())
    stats = {f"max_{k}": v for k, v in worst.items()}
    stats.update(
        levels_checked=levels, identity_v_scored=v_scored, identity_v_rejected=levels - v_scored
    )
    verdicts = {k: worst[k] < TOL_IDENTITY for k in elementary}
    verdicts["identity_v"] = worst["identity_v"] < TOL_IDENTITY_V and v_scored > 0
    verdicts["identity_v_imag"] = worst["identity_v_imag"] < TOL_IDENTITY_V_IMAG
    return ExperimentReport(
        name="identities",
        trials=trials,
        seed=seed,
        params={"max_n": max_n, "generic_stratum_gap": GENERIC_STRATUM_GAP},
        statistics=stats,
        verdicts=verdicts,
    )


def jacobian_suite(trials: int, seed: int, max_n: int = MAX_TOTAL_JACOBIAN_N) -> ExperimentReport:
    """Complex-step step and total Jacobian determinants vs formulas."""
    worst = {"jacobian_odd_step": 0.0, "jacobian_even_step": 0.0, "jacobian_total": 0.0}
    for _, a, b in _draw_trials(seed, trials, max_n, avoid_unit_last_a=False).values():
        res = {**step_jacobian_residuals(a, b), "jacobian_total": total_jacobian_residuals(a, b)}
        for key in worst:
            worst[key] = max(worst[key], float(res[key].max()))
    return ExperimentReport(
        name="jacobians",
        trials=trials,
        seed=seed,
        params={"max_n": max_n},
        statistics={f"max_{k}": v for k, v in worst.items()},
        verdicts={k: v < TOL_JACOBIAN for k, v in worst.items()},
    )


def ks_test(samples, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    from scipy import stats as spstats

    samples = np.asarray(samples, dtype=float)
    if len(samples) < 20:
        raise ValueError("need at least 20 samples for a meaningful KS test")
    result = spstats.kstest(samples, cdf)
    return float(result.statistic), float(result.pvalue)


def _sum_zeros_chunk(args) -> tuple[list[float], float]:
    """Zero sums by the monomial route: ladder polynomials, then companion roots."""
    params, seed, start, stop = args
    s, t, kappa = sample_coupled_trials(params, RandomStream(seed).generators(start, stop))
    a, b, failures = coupled_coefficients(s, t, params.gamma, kappa)
    if failures:
        raise failures[min(failures)]
    roots, failures = companion_roots(lstar_rows(a, b))
    if failures:
        raise failures[min(failures)]
    totals = np.sum(roots, axis=1)
    return totals.real.tolist(), float(np.max(np.abs(totals.imag), initial=0.0))


def sum_zeros_test(
    params: EnsembleParams, trials: int, seed: int, workers: int = 1
) -> ExperimentReport:
    """KS test of the zero sum against its exact normal law.

    The sum of all zeros equals the sum of the diagonal coefficients, a
    sum of n independent centered normals with total variance
    2 gamma^2 / beta, independent of n and of the coupling.  One retry on
    a fresh block of substreams is permitted; both p-values are logged.
    """
    from scipy import stats as spstats

    scale = math.sqrt(2.0 * params.gamma**2 / params.beta)
    cdf = spstats.norm(scale=scale).cdf
    notes = []
    offset = 0
    p_final = 0.0
    stat_final = 1.0
    worst_imag = 0.0
    for attempt in range(2):
        chunk_args = [
            (params, seed, lo, hi) for lo, hi in _chunk_bounds(offset, offset + trials, workers, params.n)
        ]
        sums: list[float] = []
        for block, imag in _chunked(_sum_zeros_chunk, chunk_args, workers):
            sums.extend(block)
            worst_imag = max(worst_imag, imag)
        stat_final, p_final = ks_test(sums, cdf)
        notes.append(f"attempt {attempt + 1}: ks p-value {p_final:.6g}")
        if p_final > ALPHA:
            break
        offset += trials
    return ExperimentReport(
        name="sum_zeros",
        trials=trials,
        seed=seed,
        params={
            "beta": params.beta,
            "n": params.n,
            "gamma": params.gamma,
            "kappa": params.kappa.spec(),
            "alpha": ALPHA,
            "normal_scale": scale,
        },
        statistics={"ks_stat": stat_final, "p_value": p_final, "max_imag_part": worst_imag},
        verdicts={"ks_pass": p_final > ALPHA, "sums_real": worst_imag < 1e-9},
        notes=tuple(notes),
    )


def semicircle_moment_test(
    beta: float, n: int, trials: int, seed: int
) -> ExperimentReport:
    """Second and fourth spectral moments of the tridiagonal model.

    At the chosen scaling the empirical spectral law tends to the
    semicircle on [-2, 2], whose even moments are the Catalan numbers:
    second moment 1, fourth moment 2.
    """
    if n < 50:
        raise ValueError("moment test is meaningful only for n >= 50")
    m2s, m4s = [], []
    for s, t in _block_chunks(EnsembleParams(beta, n), seed, 0, trials):
        for row_s, row_t in zip(s, t):
            ev = tridiag_eigenvalues(TruncatedOperator(row_s, row_t))
            m2s.append(float(np.mean(ev**2)))
            m4s.append(float(np.mean(ev**4)))
    m2, m4 = float(np.mean(m2s)), float(np.mean(m4s))
    return ExperimentReport(
        name="semicircle_moments",
        trials=trials,
        seed=seed,
        params={"beta": beta, "n": n},
        statistics={"second_moment": m2, "fourth_moment": m4},
        verdicts={"second_moment": abs(m2 - 1.0) < 0.02, "fourth_moment": abs(m4 - 2.0) < 0.05},
    )


def _coordinate_draws(beta: float, n: int, trials: int, seed: int, offset: int):
    """Rows (s, t) of the dense route, one matrix and one reduction per substream."""
    rows = np.empty((trials, 2 * n - 1))
    for trial, gen in enumerate(_trial_generators(seed, offset, offset + trials, n)):
        sample = householder_tridiagonalize(_dense_gaussian(beta, n, gen))
        rows[trial] = sample.s + sample.t
    return rows


def dense_vs_tridiagonal_test(beta: float, n: int, trials: int, seed: int) -> ExperimentReport:
    """Per-coordinate two-sample KS between the two sampling routes.

    The dense route (Gaussian matrix then Householder reduction) and the
    direct tridiagonal sampler must agree coordinate by coordinate.  The
    alpha level is split across the 2n - 1 coordinates so the family of
    comparisons has the stated false-alarm rate; one retry on fresh
    substreams is permitted and logged.
    """
    from scipy import stats as spstats

    if beta not in (1, 2):
        raise UnsupportedVariantError("dense sampling exists only for beta in {1, 2}")
    threshold = ALPHA / (2 * n - 1)
    notes = []
    min_p = 0.0
    for attempt in range(2):
        offset = attempt * 2 * trials
        blocks = _block_chunks(EnsembleParams(beta, n), seed, offset, offset + trials)
        direct = np.vstack([np.hstack(block) for block in blocks])
        dense = _coordinate_draws(beta, n, trials, seed, offset + trials)
        pvals = [
            float(spstats.ks_2samp(direct[:, j], dense[:, j]).pvalue)
            for j in range(2 * n - 1)
        ]
        min_p = min(pvals)
        notes.append(f"attempt {attempt + 1}: min coordinate p-value {min_p:.6g}")
        if min_p > threshold:
            break
    return ExperimentReport(
        name="dense_vs_tridiagonal",
        trials=trials,
        seed=seed,
        params={"beta": beta, "n": n, "alpha": ALPHA, "per_coordinate_alpha": threshold},
        statistics={"min_p_value": min_p, "coordinates": 2 * n - 1},
        verdicts={"coordinates_agree": min_p > threshold},
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# n = 1 density machinery: the two-point configuration is either a real
# ordered pair (r1 < r2) or one conjugate pair (x + iy, y > 0).  The
# admissible real region splits into four pieces indexed by which points
# sit outside the unit interval; with the conjugate-pair half disk these
# are the five entries of _REGIONS.  Each region is fibred over one
# coordinate u (r1, r2 or x) with the other coordinate on (lo(u), hi(u)),
# so other = lo + v (hi - lo) maps a rectangle in (u, v) onto it with
# area Jacobian hi - lo, for quadrature and binning alike.  The density
# itself is density.log_density_batch, evaluated on (T, 2) real rows or
# (T, 1) pair rows, and kappa is drawn by ensembles.sample_kappa.
# The Monte Carlo comparison first builds every region's bin table from
# the density alone, then counts each chunk of samples into it as drawn.
# A table keeps one row of bin labels per u-strip, so only the fine grid
# of the region being built is ever held.


# name: (rectangle (u0, u1, v0, v1) at radius R, whether u is the first
# coordinate r1 or x (else u is r2), fibre (lo(u), hi(u)) of the other)
_REGIONS = {
    "real_both_inside": (lambda R: (-1.0, 1.0, 0.0, 1.0), True, lambda u: (u, 1.0)),
    "real_pos_eigen": (lambda R: (1.0, R, 0.0, 1.0), False, lambda u: (-1.0, 1.0 / u)),
    "real_neg_eigen": (lambda R: (-R, -1.0, 0.0, 1.0), True, lambda u: (1.0 / u, 1.0)),
    "real_two_eigen": (lambda R: (-R, -1.0, 1.0, R), True, lambda u: (0.0, 1.0)),
    "conj_pair": (lambda R: (-1.0, 1.0, 0.0, 1.0), True, lambda u: (0.0, np.sqrt(1.0 - u * u))),
}
REGIONS = tuple(_REGIONS)


def _region_forward(name: str, u, v):
    """Map rectangle coordinates (u, v) to the two coordinates and the area Jacobian."""
    _, u_first, fibre = _REGIONS[name]
    lo, hi = fibre(u)
    other = lo + v * (hi - lo)
    return (u, other, hi - lo) if u_first else (other, u, hi - lo)


def _region_inverse(name: str, first, second) -> np.ndarray:
    """Rectangle coordinates (u, v), one row per point given by its two coordinates."""
    _, u_first, fibre = _REGIONS[name]
    u, other = (first, second) if u_first else (second, first)
    lo, hi = fibre(u)
    return np.column_stack([u, (other - lo) / (hi - lo)])


def _region_log_density(name: str, u, v, params: EnsembleParams):
    """Density times the area Jacobian at the region's rectangle coordinates (u, v)."""
    p, q, jac = _region_forward(name, u, v)
    if name == "conj_pair":
        pairs = (p + 1j * q).reshape(-1, 1)
        logd = log_density_batch(np.empty((len(pairs), 0)), pairs, params)
        weight = 2.0  # |dz dconj(z)| = 2 dx dy per pair
    else:
        # regions hold ordered pairs r1 < r2; the 1/L! ordering factor of
        # the measure exactly cancels the two orderings of the same set
        reals = np.column_stack([np.ravel(p), np.ravel(q)])
        logd = log_density_batch(reals, np.empty((len(reals), 0), dtype=complex), params)
        weight = 1.0
    with np.errstate(invalid="ignore"):
        vals = np.exp(logd.reshape(np.shape(p))) * jac * weight
    return np.nan_to_num(vals, nan=0.0, posinf=0.0)


def _quadrature_masses(pieces, params: EnsembleParams) -> list[float]:
    """Mass of each (region, rectangle) piece under one QUAD_NODES-point Gauss-Legendre rule."""
    xg, wg = np.polynomial.legendre.leggauss(QUAD_NODES)
    vals = np.empty((QUAD_NODES, QUAD_NODES))
    masses = []
    for name, (u0, u1, v0, v1) in pieces:
        un = 0.5 * (u1 - u0) * xg + 0.5 * (u0 + u1)
        vn = 0.5 * (v1 - v0) * xg + 0.5 * (v0 + v1)
        wu = 0.5 * (u1 - u0) * wg
        wv = 0.5 * (v1 - v0) * wg
        for lo in range(0, QUAD_NODES, STRIP_ROWS):
            uu, vv = np.meshgrid(un[lo : lo + STRIP_ROWS], vn, indexing="ij")
            vals[lo : lo + STRIP_ROWS] = _region_log_density(name, uu, vv, params)
        masses.append(float(np.einsum("i,j,ij->", wu, wv, vals)))
    return masses


def _rects(radius: float) -> list:
    """(name, rectangle at radius) for each region."""
    return [(name, rect(radius)) for name, (rect, _, _) in _REGIONS.items()]


def _tail_pieces(radius: float) -> list:
    """The annular extension radius..radius+2 of the unbounded regions.

    The region maps do not depend on the rectangle bounds, so the tail is
    integrated directly over the extension strips instead of differencing
    two full quadratures (which would mostly measure node placement noise
    when the kappa law has a discontinuous density).
    """
    return [
        ("real_pos_eigen", (radius, radius + 2.0, 0.0, 1.0)),
        ("real_neg_eigen", (-radius - 2.0, -radius, 0.0, 1.0)),
        ("real_two_eigen", (-radius - 2.0, -radius, 1.0, radius + 2.0)),
        ("real_two_eigen", (-radius, -1.0, radius, radius + 2.0)),
    ]


def _check_radius(radius: float) -> None:
    """The regions run from the unit circle out to radius, so it must exceed 1."""
    if not radius > 1:
        raise ValueError(f"radius must be greater than 1, got {radius}")


def density_normalization_n1(
    beta: float,
    gamma: float = 1.0,
    kappa_dist: KappaDistribution = DEFAULT_KAPPA,
    radius: float = DEFAULT_RADIUS,
) -> ExperimentReport:
    """Quadrature of the closed-form two-point density over its support.

    Integrates over the four admissible real-pair regions and the
    conjugate-pair half disk, with the wedge ordering and measure factors
    made explicit.  The domain is truncated at |z| <= radius; the tail is
    estimated by enlarging the domain and must be negligible.
    """
    _check_radius(radius)
    params = EnsembleParams(beta, 1, gamma, kappa_dist)
    pieces = _quadrature_masses(_rects(radius) + _tail_pieces(radius), params)
    masses = dict(zip(REGIONS, pieces))
    total = sum(masses.values())
    tail = sum(pieces[len(REGIONS) :])
    stats = {f"mass_{name}": m for name, m in masses.items()}
    stats.update({"total": total, "tail_estimate": tail, "radius": radius, "nodes": QUAD_NODES})
    return ExperimentReport(
        name="density_normalization",
        trials=0,
        seed=0,
        params={"beta": beta, "gamma": gamma, "kappa": kappa_dist.spec(), "n": 1},
        statistics=stats,
        verdicts={"total_is_one": abs(total - 1.0) < 0.01, "tail_negligible": tail < TAIL_LIMIT},
    )


def _mc_chunk_n1(args):
    """Vectorized n=1 pipeline for one chunk: returns real pairs and conj pairs.

    For n=1 the final ladder polynomial is z^2 - b z + (1 - kappa^2)
    with b = gamma s, so its two zeros come from the quadratic formula;
    this is the same computation the general pipeline performs, done on
    whole arrays at once (cross-checked against the scalar route in the
    tests).
    """
    beta, gamma, dist, seed, index, size = args
    stream = RandomStream(seed).substream(index)
    s = stream.generator.normal(0.0, math.sqrt(2.0 / beta), size)
    kap = sample_kappa(dist, stream, size)
    b = gamma * s
    disc = b * b - 4.0 * (1.0 - kap * kap)
    real = disc >= 0
    root = np.sqrt(disc[real])
    r_lo = 0.5 * (b[real] - root)
    r_hi = 0.5 * (b[real] + root)
    imag = ~real
    x = 0.5 * b[imag]
    y = 0.5 * np.sqrt(-disc[imag])
    return np.column_stack([r_lo, r_hi]), np.column_stack([x, y])


def _equal_mass_edges(cum: np.ndarray, pieces: int) -> np.ndarray:
    """Cut points 0 = e_0 < ... < e_k = len(cum) splitting a cumulative mass into equal pieces.

    Piece j holds the half-open index range [e_j, e_{j+1}).
    """
    total = cum[-1]
    if total <= 0:
        return np.array([0, len(cum)])
    targets = total * np.arange(1, pieces) / pieces
    return np.unique(np.concatenate([[0], np.searchsorted(cum, targets), [len(cum)]]))


def _region_table(name, rect, params, trials, max_pieces):
    """Equal-mass 2d bins of one region: expected masses, row_strip and strip_labels.

    A fine midpoint grid over the rectangle, evaluated STRIP_ROWS u-rows
    at a time, supplies the quantile edges (equal-mass strips in u, each
    cut into equal-mass pieces in v, on grid lines).  Fine cell (i, j)
    lies in bin strip_labels[row_strip[i], j]; each strip's masses are
    summed STRIP_ROWS rows at a time, in the order of one bincount over
    the whole grid.  The number of bins per axis adapts to the region
    mass so every bin targets roughly BIN_TARGET_COUNT expected samples;
    at that count the per-bin Poisson noise sits near 2 percent and a
    3.5 sigma outlier still clears a 10 percent tolerance.
    """
    u0, u1, v0, v1 = rect
    du = (u1 - u0) / FINE_GRID
    dv = (v1 - v0) / FINE_GRID
    uc = u0 + (np.arange(FINE_GRID) + 0.5) * du
    vc = v0 + (np.arange(FINE_GRID) + 0.5) * dv
    cells = np.empty((FINE_GRID, FINE_GRID))
    for lo in range(0, FINE_GRID, STRIP_ROWS):
        uu, vv = np.meshgrid(uc[lo : lo + STRIP_ROWS], vc, indexing="ij")
        cells[lo : lo + STRIP_ROWS] = _region_log_density(name, uu, vv, params) * (du * dv)

    region_mass = float(cells.sum())
    pieces = int(math.sqrt(max(region_mass * trials / BIN_TARGET_COUNT, 1.0)))
    pieces = max(1, min(pieces, max_pieces))
    grid = np.arange(FINE_GRID)
    u_edges = _equal_mass_edges(np.cumsum(cells.sum(axis=1)), pieces)
    row_strip = np.repeat(np.arange(len(u_edges) - 1), np.diff(u_edges))
    strip_labels = np.empty((len(u_edges) - 1, FINE_GRID), dtype=np.intp)
    masses = []
    bins = 0
    for s, (lo, hi) in enumerate(zip(u_edges[:-1], u_edges[1:])):
        v_edges = _equal_mass_edges(np.cumsum(cells[lo:hi].sum(axis=0)), pieces)
        local = np.searchsorted(v_edges, grid, "right") - 1
        mass = np.zeros(len(v_edges) - 1)
        for r in range(lo, hi, STRIP_ROWS):
            rows = cells[r : min(r + STRIP_ROWS, hi)]
            np.add.at(mass, np.broadcast_to(local, rows.shape), rows)
        strip_labels[s] = bins + local
        masses.append(mass)
        bins += len(mass)
    return np.concatenate(masses), row_strip, strip_labels


def _bin_samples(rect, table, samples_uv):
    """Counts per bin of samples already mapped to the rectangle, and how many fall outside it.

    table is the region's (expected, row_strip, strip_labels) from :func:`_region_table`.
    """
    expected, row_strip, strip_labels = table
    u0, u1, v0, v1 = rect
    du = (u1 - u0) / FINE_GRID
    dv = (v1 - v0) / FINE_GRID
    u, v = samples_uv.T
    in_rect = (u >= u0) & (u < u1) & (v >= v0) & (v < v1)
    su = np.clip(((u[in_rect] - u0) / du).astype(int), 0, FINE_GRID - 1)
    sv = np.clip(((v[in_rect] - v0) / dv).astype(int), 0, FINE_GRID - 1)
    counts = np.bincount(strip_labels[row_strip[su], sv], minlength=len(expected))
    return counts, len(u) - int(in_rect.sum())


def _samples_to_region_uv(real_pairs: np.ndarray, conj_pairs: np.ndarray):
    """Split samples by region and map them to rectangle coordinates."""
    r1, r2 = real_pairs.T
    masks = {
        "real_both_inside": (r1 > -1.0) & (r2 < 1.0),
        "real_pos_eigen": (r1 > -1.0) & (r2 > 1.0),
        "real_neg_eigen": (r1 < -1.0) & (r2 < 1.0),
        "real_two_eigen": (r1 < -1.0) & (r2 > 1.0),
    }
    with np.errstate(divide="ignore", invalid="ignore"):
        out = {name: _region_inverse(name, r1[mask], r2[mask]) for name, mask in masks.items()}
        out["conj_pair"] = _region_inverse("conj_pair", *conj_pairs.T)
    return out


def density_mc_compare_n1(
    beta: float,
    gamma: float,
    kappa_dist: KappaDistribution,
    trials: int,
    seed: int,
    bins: int = 24,
    workers: int = 1,
    radius: float = DEFAULT_RADIUS,
) -> ExperimentReport:
    """Binned comparison of sampled two-point configurations vs the density.

    Bins are equal-mass quantile cells per region (computed from a fine
    quadrature grid), so every scored bin carries a comparable expected
    count; a uniform grid would concentrate most counts in a few cells
    and make the per-bin relative tolerance statistically meaningless.
    The per-region bin count adapts to the region mass (bins caps the
    count per axis), and only bins with expected count >= 100 enter the
    maximum deviation.  The bin tables are built before any sampling,
    and each MC_CHUNK of samples is counted into them as it is drawn,
    so memory does not grow with trials.
    """
    if trials < 1e5:
        raise ValueError("the binned comparison needs at least 1e5 trials")
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    _check_radius(radius)
    if not kappa_dist.has_density:
        raise ValueError("kappa must have a density for the comparison")
    params = EnsembleParams(beta, 1, gamma, kappa_dist)
    rects = _rects(radius)
    tables = {name: _region_table(name, rect, params, trials, bins) for name, rect in rects}
    counts = {name: np.zeros(len(table[0]), dtype=np.int64) for name, table in tables.items()}

    sizes = [MC_CHUNK] * (trials // MC_CHUNK)
    if trials % MC_CHUNK:
        sizes.append(trials % MC_CHUNK)
    chunk_args = [
        (beta, gamma, kappa_dist, seed, i, size) for i, size in enumerate(sizes)
    ]
    real_count = 0
    unbinned = 0
    for real_pairs, conj_pairs in _chunked(_mc_chunk_n1, chunk_args, workers):
        real_count += len(real_pairs)
        region_uv = _samples_to_region_uv(real_pairs, conj_pairs)
        for name, rect in rects:
            chunk_counts, extra = _bin_samples(rect, tables[name], region_uv[name])
            counts[name] += chunk_counts
            unbinned += extra

    max_rel_dev = 0.0
    bins_scored = 0
    bins_total = 0
    expected_mass = 0.0
    for name, (expected, _, _) in tables.items():
        bins_total += len(expected)
        expected_mass += float(expected.sum())
        scored = expected * trials >= MIN_EXPECTED_COUNT
        bins_scored += int(np.sum(scored))
        if np.any(scored):
            dev = np.abs(counts[name][scored] / trials - expected[scored]) / expected[scored]
            max_rel_dev = max(max_rel_dev, float(np.max(dev)))

    real_frac = real_count / trials
    real_mass = sum(_quadrature_masses([p for p in rects if p[0] != "conj_pair"], params))
    sigma = math.sqrt(max(real_mass * (1.0 - real_mass), 1e-12) / trials)
    split_dev = abs(real_frac - real_mass)

    return ExperimentReport(
        name="density_mc_compare",
        trials=trials,
        seed=seed,
        params={
            "beta": beta,
            "gamma": gamma,
            "kappa": kappa_dist.spec(),
            "n": 1,
            "bins_per_axis": bins,
            "radius": radius,
        },
        statistics={
            "max_rel_bin_deviation": max_rel_dev,
            "bins_scored": bins_scored,
            "bins_total": bins_total,
            "real_fraction_empirical": real_frac,
            "real_fraction_quadrature": real_mass,
            "split_deviation": split_dev,
            "split_3sigma": 3.0 * sigma,
            "unbinned_samples": unbinned,
            "expected_mass_covered": expected_mass,
        },
        verdicts={
            "max_rel_deviation": max_rel_dev < 0.10,
            "region_split": split_dev < 3.0 * sigma + 2.0 * TAIL_LIMIT,
            "bins_scored_nonzero": bins_scored > 0,
        },
    )

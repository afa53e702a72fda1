"""Monte Carlo experiment runner and statistical verification suites.

Two independent kinds of evidence are collected here.  Algebraic suites
(round trip, identities, Jacobians) check exact statements on random
inputs and must hold to tight tolerances.  Statistical suites compare
sampled spectra against their predicted laws (KS tests, moment checks,
and a binned comparison against the closed-form n=1 joint density).

All randomness is derived from per-trial substreams of a single seed, so
every report is a pure function of (seed, parameters) regardless of the
worker count used to produce it.  Statistical verdicts use alpha = 0.01
with one retry on a fresh substream; both outcomes are logged.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import stats as spstats

from .density import DensityParams, _real_product, normalization_constants
from .ensembles import (
    EnsembleParams,
    KappaDistribution,
    RandomStream,
    UnsupportedVariantError,
    householder_tridiagonalize,
    sample_de_tridiagonal,
    sample_dense_gaussian,
    sample_kappa,
)
from .geronimo_case import gc_forward, gc_inverse
from .identities import (
    TOL_IDENTITY,
    TOL_IDENTITY_V,
    TOL_IDENTITY_V_IMAG,
    TOL_JACOBIAN,
    check_zero_coefficient_identities,
    stepwise_jacobian_fd,
    total_jacobian_fd,
)
from .jacobi import (
    JacobiCoefficients,
    TruncatedOperator,
    assemble_coupled,
    perturbation_order,
    tridiag_eigenvalues,
)
from .spectra import polynomial_roots, resolve

ALPHA = 0.01
ROUNDTRIP_PRECISION = 40
ROUNDTRIP_TOL = 1e-8
KAPPA_IDENTITY_TOL = 1e-9
MAX_FAILURE_RATE = 1e-3
TRIAL_CHUNK = 256
MC_CHUNK = 1 << 15
QUAD_NODES = 200
FINE_GRID = 768
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


def _chunked(fn: Callable, args_list: list, workers: int) -> list:
    """Run fn over the argument list, in order, optionally in processes."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def random_coefficients(stream: RandomStream, n: int, avoid_unit_last_a: bool = True) -> JacobiCoefficients:
    """Random perturbed coefficients: a in (0.1, 3), b in (-3, 3).

    The last a is redrawn while it sits within 1e-3 of 1 so the top
    recursion level never degenerates (the inverse map divides by the
    perturbation strength of that level).
    """
    gen = stream.generator
    a = gen.uniform(0.1, 3.0, n)
    b = gen.uniform(-3.0, 3.0, n)
    if avoid_unit_last_a:
        while abs(a[-1] - 1.0) < 1e-3:
            a[-1] = gen.uniform(0.1, 3.0)
    return JacobiCoefficients(tuple(float(x) for x in a), tuple(float(x) for x in b))


def _pipeline_record(params: EnsembleParams, stream: RandomStream, trial: int) -> dict:
    """One full sampling trial: block, coupling, recursion, zeros, checks.

    The coupling residual compares kappa with sqrt(1 - prod z_j) over all
    2n zeros, so any dropped origin zero makes the product 0.
    """
    sample = sample_de_tridiagonal(params, stream)
    kappa = sample_kappa(params.kappa, stream)
    coeffs = assemble_coupled(sample, params.gamma, kappa)
    roots = polynomial_roots(gc_forward(coeffs).final)
    config, verdict = resolve(roots, perturbation_order(coeffs))
    if verdict.clause == "count":
        residual = math.inf
    else:
        prod = 0.0 if config.origin_drops else _real_product(config)
        residual = abs(kappa - (math.sqrt(1.0 - prod) if prod < 1.0 else math.nan))
    return {
        "trial": trial,
        "s": [float(x) for x in sample.s],
        "t": [float(x) for x in sample.t],
        "kappa": float(kappa),
        "a": [float(x) for x in coeffs.a],
        "b": [float(x) for x in coeffs.b],
        "zeros": [[z.real, z.imag, lab] for z, lab in zip(config.points, config.labels)],
        "in_S": bool(verdict),
        "clause": verdict.clause,
        "kappa_check_residual": residual,
    }


def _pipeline_chunk(args) -> list[dict]:
    params, seed, start, stop = args
    out = []
    for trial in range(start, stop):
        try:
            out.append(_pipeline_record(params, RandomStream(seed).substream(trial), trial))
        except Exception as exc:
            out.append({"trial": trial, "error": f"{type(exc).__name__}: {exc}"})
    return out


@dataclass(frozen=True)
class SamplingResult:
    records: list
    failures: list

    @property
    def trials(self) -> int:
        return len(self.records) + len(self.failures)


def run_resonance_sampling(
    params: EnsembleParams, trials: int, seed: int, workers: int = 1
) -> SamplingResult:
    """Sample the full pipeline per trial, recording zeros and checks.

    Individual numerical failures are collected rather than raised, but a
    failure rate above 0.1 percent aborts: that level cannot be explained
    by unlucky draws near the degenerate strata.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    chunk_args = [
        (params, seed, start, min(start + TRIAL_CHUNK, trials))
        for start in range(0, trials, TRIAL_CHUNK)
    ]
    records: list[dict] = []
    failures: list[dict] = []
    for block in _chunked(_pipeline_chunk, chunk_args, workers):
        for rec in block:
            (failures if "error" in rec else records).append(rec)
    if trials and len(failures) > MAX_FAILURE_RATE * trials:
        raise RuntimeError(f"{len(failures)} of {trials} sampling trials failed")
    return SamplingResult(records, failures)


def _membership_chunk(args) -> list[tuple]:
    betas, max_n, gamma, dist, seed, start, stop = args
    rows = []
    for trial in range(start, stop):
        stream = RandomStream(seed).substream(trial)
        beta = betas[trial % len(betas)]
        n = int(stream.generator.integers(1, max_n + 1))
        try:
            rec = _pipeline_record(EnsembleParams(beta, n, gamma, dist), stream, trial)
            rows.append((rec["in_S"], rec["kappa_check_residual"], rec["clause"]))
        except Exception as exc:
            rows.append((False, math.inf, type(exc).__name__))
    return rows


def membership_suite(
    trials: int,
    seed: int,
    betas: tuple[float, ...] = (1.0, 2.0, 4.0),
    max_n: int = 5,
    gamma: float = 1.0,
    kappa_dist: KappaDistribution | None = None,
    workers: int = 1,
) -> ExperimentReport:
    """Admissibility of every sampled configuration, across beta values.

    Trials are interleaved over the beta list; n is drawn uniformly from
    1..max_n per trial.  Checks both the membership verdict and the
    coupling identity kappa^2 = 1 - prod z_j.
    """
    dist = kappa_dist or KappaDistribution("chi", (3.0, 0.5))
    chunk_args = [
        (tuple(betas), max_n, gamma, dist, seed, start, min(start + TRIAL_CHUNK, trials))
        for start in range(0, trials, TRIAL_CHUNK)
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
            "kappa": dist.spec(),
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


def roundtrip_suite(
    trials: int,
    seed: int,
    max_n: int = 8,
    precision: int | None = ROUNDTRIP_PRECISION,
) -> ExperimentReport:
    """Forward-then-inverse recursion must recover the coefficients.

    The inverse recursion loses roughly n digits per level on unlucky
    draws (small a values), so by default both directions run at 40
    working digits; see the precision note in the recursion module.
    """
    worst = 0.0
    t0 = time.perf_counter()
    master = RandomStream(seed)
    for trial in range(trials):
        stream = master.substream(trial)
        n = int(stream.generator.integers(1, max_n + 1))
        coeffs = random_coefficients(stream, n)
        recovered = gc_inverse(gc_forward(coeffs, precision=precision).final, precision=precision)
        for got, want in zip(recovered.a + recovered.b, coeffs.a + coeffs.b):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - t0
    return ExperimentReport(
        name="roundtrip",
        trials=trials,
        seed=seed,
        params={"max_n": max_n, "precision": precision},
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
    master = RandomStream(seed)
    max_res = {"identity_i": 0.0, "identity_ii": 0.0, "identity_iii": 0.0, "identity_iv": 0.0}
    max_v = 0.0
    max_v_imag = 0.0
    v_scored = 0
    v_rejected = 0
    levels = 0
    for trial in range(trials):
        stream = master.substream(trial)
        n = int(stream.generator.integers(1, max_n + 1))
        coeffs = random_coefficients(stream, n, avoid_unit_last_a=False)
        for m in range(1, 2 * n + 1):
            report = check_zero_coefficient_identities(coeffs, m)
            levels += 1
            for key in max_res:
                max_res[key] = max(max_res[key], report.residuals[key])
            if (
                "identity_v" in report.residuals
                and report.values["min_abs_one_minus_zjzk"] > GENERIC_STRATUM_GAP
            ):
                v_scored += 1
                max_v = max(max_v, report.residuals["identity_v"])
                max_v_imag = max(max_v_imag, report.imag_residual)
            else:
                v_rejected += 1
    stats = {f"max_{k}": v for k, v in max_res.items()}
    stats.update(
        {
            "max_identity_v": max_v,
            "max_identity_v_imag": max_v_imag,
            "levels_checked": levels,
            "identity_v_scored": v_scored,
            "identity_v_rejected": v_rejected,
        }
    )
    verdicts = {k: v < TOL_IDENTITY for k, v in max_res.items()}
    verdicts["identity_v"] = max_v < TOL_IDENTITY_V and v_scored > 0
    verdicts["identity_v_imag"] = max_v_imag < TOL_IDENTITY_V_IMAG
    return ExperimentReport(
        name="identities",
        trials=trials,
        seed=seed,
        params={"max_n": max_n, "generic_stratum_gap": GENERIC_STRATUM_GAP},
        statistics=stats,
        verdicts=verdicts,
    )


def jacobian_suite(trials: int, seed: int, max_n: int = 5) -> ExperimentReport:
    """Finite-difference step and total Jacobian determinants vs formulas."""
    master = RandomStream(seed)
    worst = {"jacobian_odd_step": 0.0, "jacobian_even_step": 0.0, "jacobian_total": 0.0}
    for trial in range(trials):
        stream = master.substream(trial)
        n = int(stream.generator.integers(1, max_n + 1))
        coeffs = random_coefficients(stream, n, avoid_unit_last_a=False)
        for k in range(n):
            rep = stepwise_jacobian_fd(coeffs, k)
            worst["jacobian_odd_step"] = max(
                worst["jacobian_odd_step"], rep.residuals["jacobian_odd_step"]
            )
            worst["jacobian_even_step"] = max(
                worst["jacobian_even_step"], rep.residuals["jacobian_even_step"]
            )
        rep = total_jacobian_fd(coeffs)
        worst["jacobian_total"] = max(worst["jacobian_total"], rep.residuals["jacobian_total"])
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
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 20:
        raise ValueError("need at least 20 samples for a meaningful KS test")
    result = spstats.kstest(samples, cdf)
    return float(result.statistic), float(result.pvalue)


def _sum_zeros_chunk(args) -> tuple[list[float], float]:
    params, seed, start, stop = args
    sums = []
    worst_imag = 0.0
    for trial in range(start, stop):
        stream = RandomStream(seed).substream(trial)
        sample = sample_de_tridiagonal(params, stream)
        kappa = sample_kappa(params.kappa, stream)
        coeffs = assemble_coupled(sample, params.gamma, kappa)
        total = complex(np.sum(polynomial_roots(gc_forward(coeffs).final)))
        sums.append(total.real)
        worst_imag = max(worst_imag, abs(total.imag))
    return sums, worst_imag


def sum_zeros_test(
    params: EnsembleParams, trials: int, seed: int, workers: int = 1, alpha: float = ALPHA
) -> ExperimentReport:
    """KS test of the zero sum against its exact normal law.

    The sum of all zeros equals the sum of the diagonal coefficients, a
    sum of n independent centered normals with total variance
    2 gamma^2 / beta, independent of n and of the coupling.  One retry on
    a fresh block of substreams is permitted; both p-values are logged.
    """
    scale = math.sqrt(2.0 * params.gamma**2 / params.beta)
    cdf = spstats.norm(scale=scale).cdf
    notes = []
    offset = 0
    p_final = 0.0
    stat_final = 1.0
    worst_imag = 0.0
    for attempt in range(2):
        chunk_args = [
            (params, seed, offset + s, offset + min(s + TRIAL_CHUNK, trials))
            for s in range(0, trials, TRIAL_CHUNK)
        ]
        sums: list[float] = []
        for block, imag in _chunked(_sum_zeros_chunk, chunk_args, workers):
            sums.extend(block)
            worst_imag = max(worst_imag, imag)
        stat_final, p_final = ks_test(sums, cdf)
        notes.append(f"attempt {attempt + 1}: ks p-value {p_final:.6g}")
        if p_final > alpha:
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
            "alpha": alpha,
            "normal_scale": scale,
        },
        statistics={"ks_stat": stat_final, "p_value": p_final, "max_imag_part": worst_imag},
        verdicts={"ks_pass": p_final > alpha, "sums_real": worst_imag < 1e-9},
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
    params = EnsembleParams(beta, n)
    master = RandomStream(seed)
    m2s, m4s = [], []
    for trial in range(trials):
        sample = sample_de_tridiagonal(params, master.substream(trial))
        ev = tridiag_eigenvalues(TruncatedOperator(np.array(sample.s), np.array(sample.t)))
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


def _coordinate_draws(beta: float, n: int, trials: int, seed: int, dense: bool, offset: int):
    rows = np.empty((trials, 2 * n - 1))
    master = RandomStream(seed)
    for trial in range(trials):
        stream = master.substream(offset + trial)
        if dense:
            sample = householder_tridiagonalize(sample_dense_gaussian(beta, n, stream))
        else:
            sample = sample_de_tridiagonal(EnsembleParams(beta, n), stream)
        rows[trial, :n] = sample.s
        rows[trial, n:] = sample.t
    return rows


def dense_vs_tridiagonal_test(
    beta: float, n: int, trials: int, seed: int, alpha: float = ALPHA
) -> ExperimentReport:
    """Per-coordinate two-sample KS between the two sampling routes.

    The dense route (Gaussian matrix then Householder reduction) and the
    direct tridiagonal sampler must agree coordinate by coordinate.  The
    alpha level is split across the 2n - 1 coordinates so the family of
    comparisons has the stated false-alarm rate; one retry on fresh
    substreams is permitted and logged.
    """
    if beta not in (1, 2):
        raise UnsupportedVariantError("dense sampling exists only for beta in {1, 2}")
    threshold = alpha / (2 * n - 1)
    notes = []
    min_p = 0.0
    for attempt in range(2):
        offset = attempt * 2 * trials
        direct = _coordinate_draws(beta, n, trials, seed, dense=False, offset=offset)
        dense = _coordinate_draws(beta, n, trials, seed, dense=True, offset=offset + trials)
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
        params={"beta": beta, "n": n, "alpha": alpha, "per_coordinate_alpha": threshold},
        statistics={"min_p_value": min_p, "coordinates": 2 * n - 1},
        verdicts={"coordinates_agree": min_p > threshold},
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# n = 1 density machinery: the two-point configuration is either a real
# ordered pair (r1 < r2) or one conjugate pair (x + iy, y > 0).  The
# admissible real region splits into four pieces indexed by which points
# sit outside the unit interval; each piece is mapped onto a coordinate
# rectangle for quadrature and binning.

REGIONS = ("real_both_inside", "real_pos_eigen", "real_neg_eigen", "real_two_eigen", "conj_pair")


def _kappa_density_vals(dist: KappaDistribution, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if dist.kind == "uniform":
        lo, hi = dist.params
        return np.where((x >= lo) & (x <= hi), 1.0 / (hi - lo), 0.0)
    if dist.kind == "chi":
        dof, scale = dist.params
        y = x / scale
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = np.exp(
            (dof - 1.0) * np.log(y[pos])
            - 0.5 * y[pos] ** 2
            - (0.5 * dof - 1.0) * math.log(2.0)
            - math.lgamma(0.5 * dof)
        ) / scale
        return out
    raise UnsupportedVariantError("kappa law has no density to evaluate")


def _log_density_real_vec(r1, r2, beta, gamma, dist, log_d) -> np.ndarray:
    """Joint log density on real pairs, vectorized; -inf where unsupported."""
    g2 = gamma * gamma
    ksq = 1.0 - r1 * r2
    out = np.full(np.shape(r1), -np.inf)
    ok = ksq > 0
    if not np.any(ok):
        return out
    kap = np.sqrt(ksq[ok])
    f = _kappa_density_vals(dist, kap)
    with np.errstate(divide="ignore"):
        logf = np.where(f > 0, np.log(np.where(f > 0, f, 1.0)), -np.inf)
        val = (
            np.log(np.abs(r2[ok] - r1[ok]))
            + 0.5 * (beta - 2.0) * np.log(ksq[ok])
            - 0.25 * beta * (r1[ok] ** 2 + r2[ok] ** 2) / g2
            + 0.5 * beta * ksq[ok] / g2
            + logf
            - (beta - 1.0) * np.log(kap)
            - log_d
        )
    out[ok] = val
    return out


def _log_density_pair_vec(x, y, beta, gamma, dist, log_d) -> np.ndarray:
    """Joint log density at conjugate pairs x +- iy, vectorized.

    The cross factor |1 - z conj(z)'| for the two pair members is
    |1 - z^2|, and the two per-point modulus factors contribute
    ((1-|z|^2)/|1-z^2|)^{(beta-2)/2}; their |1 - z^2| parts cancel,
    leaving (1 - x^2 - y^2)^{(beta-2)/2} in total.
    """
    g2 = gamma * gamma
    ksq = 1.0 - x * x - y * y
    out = np.full(np.shape(x), -np.inf)
    ok = ksq > 0
    if not np.any(ok):
        return out
    kap = np.sqrt(ksq[ok])
    f = _kappa_density_vals(dist, kap)
    with np.errstate(divide="ignore"):
        logf = np.where(f > 0, np.log(np.where(f > 0, f, 1.0)), -np.inf)
        val = (
            np.log(2.0 * y[ok])
            + 0.5 * (beta - 2.0) * np.log(ksq[ok])
            - 0.5 * beta * (x[ok] ** 2 - y[ok] ** 2) / g2
            + 0.5 * beta * ksq[ok] / g2
            + logf
            - (beta - 1.0) * np.log(kap)
            - log_d
        )
    out[ok] = val
    return out


def _region_rect(name: str, radius: float) -> tuple[float, float, float, float]:
    if name == "real_both_inside":
        return (-1.0, 1.0, 0.0, 1.0)
    if name == "real_pos_eigen":
        return (1.0, radius, 0.0, 1.0)
    if name == "real_neg_eigen":
        return (-radius, -1.0, 0.0, 1.0)
    if name == "real_two_eigen":
        return (-radius, -1.0, 1.0, radius)
    if name == "conj_pair":
        return (-1.0, 1.0, 0.0, 1.0)
    raise ValueError(f"unknown region {name!r}")


def _region_points(name: str, u, v):
    """Map rectangle coordinates (u, v) to points and the area Jacobian."""
    if name == "real_both_inside":
        return u, u + v * (1.0 - u), 1.0 - u
    if name == "real_pos_eigen":
        return -1.0 + v * (1.0 / u + 1.0), u, 1.0 / u + 1.0
    if name == "real_neg_eigen":
        return u, 1.0 / u + v * (1.0 - 1.0 / u), 1.0 - 1.0 / u
    if name == "real_two_eigen":
        return u, v, np.ones_like(u)
    if name == "conj_pair":
        width = np.sqrt(1.0 - u * u)
        return u, v * width, width
    raise ValueError(f"unknown region {name!r}")


def _region_log_density(name: str, u, v, beta, gamma, dist, log_d):
    p, q, jac = _region_points(name, u, v)
    if name == "conj_pair":
        logd = _log_density_pair_vec(p, q, beta, gamma, dist, log_d)
        weight = 2.0  # |dz dconj(z)| = 2 dx dy per pair
    else:
        # regions hold ordered pairs r1 < r2; the 1/L! ordering factor of
        # the measure exactly cancels the two orderings of the same set
        logd = _log_density_real_vec(p, q, beta, gamma, dist, log_d)
        weight = 1.0
    with np.errstate(invalid="ignore"):
        vals = np.exp(logd) * jac * weight
    return np.nan_to_num(vals, nan=0.0, posinf=0.0)


def _rect_mass_quadrature(name, rect, beta, gamma, dist, log_d, nodes) -> float:
    u0, u1, v0, v1 = rect
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    un = 0.5 * (u1 - u0) * xg + 0.5 * (u0 + u1)
    vn = 0.5 * (v1 - v0) * xg + 0.5 * (v0 + v1)
    wu = 0.5 * (u1 - u0) * wg
    wv = 0.5 * (v1 - v0) * wg
    uu, vv = np.meshgrid(un, vn, indexing="ij")
    vals = _region_log_density(name, uu, vv, beta, gamma, dist, log_d)
    return float(np.einsum("i,j,ij->", wu, wv, vals))


def _region_mass_quadrature(name, beta, gamma, dist, log_d, radius, nodes) -> float:
    rect = _region_rect(name, radius)
    return _rect_mass_quadrature(name, rect, beta, gamma, dist, log_d, nodes)


def _tail_mass_quadrature(beta, gamma, dist, log_d, radius, nodes, pad: float = 2.0) -> float:
    """Mass in the annular extension radius..radius+pad of the unbounded regions.

    The region maps do not depend on the rectangle bounds, so the tail is
    integrated directly over the extension strips instead of differencing
    two full quadratures (which would mostly measure node placement noise
    when the kappa law has a discontinuous density).
    """
    pieces = [
        ("real_pos_eigen", (radius, radius + pad, 0.0, 1.0)),
        ("real_neg_eigen", (-radius - pad, -radius, 0.0, 1.0)),
        ("real_two_eigen", (-radius - pad, -radius, 1.0, radius + pad)),
        ("real_two_eigen", (-radius, -1.0, radius, radius + pad)),
    ]
    return sum(
        _rect_mass_quadrature(name, rect, beta, gamma, dist, log_d, nodes)
        for name, rect in pieces
    )


def density_normalization_n1(
    beta: float,
    gamma: float = 1.0,
    kappa_dist: KappaDistribution | None = None,
    radius: float = DEFAULT_RADIUS,
    nodes: int = QUAD_NODES,
) -> ExperimentReport:
    """Quadrature of the closed-form two-point density over its support.

    Integrates over the four admissible real-pair regions and the
    conjugate-pair half disk, with the wedge ordering and measure factors
    made explicit.  The domain is truncated at |z| <= radius; the tail is
    estimated by enlarging the domain and must be negligible.
    """
    dist = kappa_dist or KappaDistribution("chi", (3.0, 0.5))
    params = DensityParams(beta, 1, gamma, dist)
    log_d = normalization_constants(params).log_d_even
    masses = {
        name: _region_mass_quadrature(name, beta, gamma, dist, log_d, radius, nodes)
        for name in REGIONS
    }
    total = sum(masses.values())
    tail = _tail_mass_quadrature(beta, gamma, dist, log_d, radius, nodes)
    stats = {f"mass_{name}": m for name, m in masses.items()}
    stats.update({"total": total, "tail_estimate": tail, "radius": radius, "nodes": nodes})
    return ExperimentReport(
        name="density_normalization",
        trials=0,
        seed=0,
        params={"beta": beta, "gamma": gamma, "kappa": dist.spec(), "n": 1},
        statistics=stats,
        verdicts={"total_is_one": abs(total - 1.0) < 0.01, "tail_negligible": tail < TAIL_LIMIT},
    )


def _sample_kappa_array(dist: KappaDistribution, gen: np.random.Generator, size: int):
    if dist.kind == "point":
        return np.full(size, dist.params[0])
    if dist.kind == "uniform":
        lo, hi = dist.params
        return gen.uniform(lo, hi, size)
    dof, scale = dist.params
    return scale * np.sqrt(2.0 * gen.standard_gamma(0.5 * dof, size))


def _mc_chunk_n1(args):
    """Vectorized n=1 pipeline for one chunk: returns real pairs and conj pairs.

    For n=1 the final ladder polynomial is z^2 - b z + (1 - kappa^2)
    with b = gamma s, so its two zeros come from the quadratic formula;
    this is the same computation the general pipeline performs, done on
    whole arrays at once (cross-checked against the scalar route in the
    tests).
    """
    beta, gamma, dist, seed, index, size = args
    gen = RandomStream(seed).substream(index).generator
    s = gen.normal(0.0, math.sqrt(2.0 / beta), size)
    kap = _sample_kappa_array(dist, gen, size)
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
    """Indices into a cumulative-mass array splitting it into equal pieces."""
    total = cum[-1]
    if total <= 0:
        return np.array([0, len(cum) - 1])
    targets = total * np.arange(1, pieces) / pieces
    idx = np.searchsorted(cum, targets)
    edges = np.unique(np.concatenate([[0], idx, [len(cum) - 1]]))
    return edges


def _bin_region(name, beta, gamma, dist, log_d, radius, trials, max_pieces, samples_uv):
    """Equal-mass 2d binning of one region: expected masses and counts.

    A fine midpoint grid supplies both the expected bin masses and the
    quantile edges; edges snap to grid lines so expectations are exact
    sums of fine cells.  The number of bins per axis adapts to the region
    mass so every bin targets roughly BIN_TARGET_COUNT expected samples;
    at that count the per-bin Poisson noise sits near 2 percent and a
    3.5 sigma outlier still clears a 10 percent tolerance.  samples_uv
    are the samples already mapped to the region rectangle.
    """
    u0, u1, v0, v1 = _region_rect(name, radius)
    du = (u1 - u0) / FINE_GRID
    dv = (v1 - v0) / FINE_GRID
    uc = u0 + (np.arange(FINE_GRID) + 0.5) * du
    vc = v0 + (np.arange(FINE_GRID) + 0.5) * dv
    uu, vv = np.meshgrid(uc, vc, indexing="ij")
    cells = _region_log_density(name, uu, vv, beta, gamma, dist, log_d) * (du * dv)

    region_mass = float(cells.sum())
    pieces = int(math.sqrt(max(region_mass * trials / BIN_TARGET_COUNT, 1.0)))
    pieces = max(1, min(pieces, max_pieces))
    u_edges_idx = _equal_mass_edges(np.cumsum(cells.sum(axis=1)), pieces)
    expected = []
    bins_of = np.full(len(samples_uv), -1)
    if len(samples_uv):
        su = np.clip(((samples_uv[:, 0] - u0) / du).astype(int), 0, FINE_GRID - 1)
        sv = np.clip(((samples_uv[:, 1] - v0) / dv).astype(int), 0, FINE_GRID - 1)
        in_rect = (
            (samples_uv[:, 0] >= u0)
            & (samples_uv[:, 0] < u1)
            & (samples_uv[:, 1] >= v0)
            & (samples_uv[:, 1] < v1)
        )
    counts = []
    for si in range(len(u_edges_idx) - 1):
        lo_u, hi_u = u_edges_idx[si], u_edges_idx[si + 1]
        strip = cells[lo_u:hi_u]
        v_edges_idx = _equal_mass_edges(np.cumsum(strip.sum(axis=0)), pieces)
        if len(samples_uv):
            in_strip = in_rect & (su >= lo_u) & (su < hi_u)
        for vi in range(len(v_edges_idx) - 1):
            lo_v, hi_v = v_edges_idx[vi], v_edges_idx[vi + 1]
            expected.append(float(strip[:, lo_v:hi_v].sum()))
            if len(samples_uv):
                counts.append(int(np.sum(in_strip & (sv >= lo_v) & (sv < hi_v))))
            else:
                counts.append(0)
    unbinned = int(np.sum(~in_rect)) if len(samples_uv) else 0
    return np.array(expected), np.array(counts), unbinned


def _samples_to_region_uv(real_pairs: np.ndarray, conj_pairs: np.ndarray):
    """Split samples by region and map them to rectangle coordinates."""
    out = {}
    r1, r2 = real_pairs[:, 0], real_pairs[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        masks = {
            "real_both_inside": (r1 > -1.0) & (r2 < 1.0),
            "real_pos_eigen": (r1 > -1.0) & (r2 > 1.0),
            "real_neg_eigen": (r1 < -1.0) & (r2 < 1.0),
            "real_two_eigen": (r1 < -1.0) & (r2 > 1.0),
        }
        for name, mask in masks.items():
            a, b = r1[mask], r2[mask]
            if name == "real_both_inside":
                uv = np.column_stack([a, (b - a) / (1.0 - a)])
            elif name == "real_pos_eigen":
                uv = np.column_stack([b, (a + 1.0) / (1.0 / b + 1.0)])
            elif name == "real_neg_eigen":
                uv = np.column_stack([a, (b - 1.0 / a) / (1.0 - 1.0 / a)])
            else:
                uv = np.column_stack([a, b])
            out[name] = uv
        x, y = conj_pairs[:, 0], conj_pairs[:, 1]
        out["conj_pair"] = np.column_stack([x, y / np.sqrt(1.0 - x * x)])
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
    maximum deviation.
    """
    if trials < 1e5:
        raise ValueError("the binned comparison needs at least 1e5 trials")
    if not kappa_dist.has_density:
        raise ValueError("kappa must have a density for the comparison")
    params = DensityParams(beta, 1, gamma, kappa_dist)
    log_d = normalization_constants(params).log_d_even

    sizes = [MC_CHUNK] * (trials // MC_CHUNK)
    if trials % MC_CHUNK:
        sizes.append(trials % MC_CHUNK)
    chunk_args = [
        (beta, gamma, kappa_dist, seed, i, size) for i, size in enumerate(sizes)
    ]
    blocks = _chunked(_mc_chunk_n1, chunk_args, workers)
    real_pairs = np.concatenate([b[0] for b in blocks])
    conj_pairs = np.concatenate([b[1] for b in blocks])

    region_uv = _samples_to_region_uv(real_pairs, conj_pairs)
    max_rel_dev = 0.0
    bins_scored = 0
    bins_total = 0
    unbinned = 0
    expected_mass = 0.0
    for name in REGIONS:
        expected, counts, extra = _bin_region(
            name, beta, gamma, kappa_dist, log_d, radius, trials, bins, region_uv[name]
        )
        unbinned += extra
        bins_total += len(expected)
        expected_mass += float(expected.sum())
        scored = expected * trials >= MIN_EXPECTED_COUNT
        bins_scored += int(np.sum(scored))
        if np.any(scored):
            dev = np.abs(counts[scored] / trials - expected[scored]) / expected[scored]
            max_rel_dev = max(max_rel_dev, float(np.max(dev)))

    real_frac = len(real_pairs) / trials
    real_mass = sum(
        _region_mass_quadrature(name, beta, gamma, kappa_dist, log_d, radius, QUAD_NODES)
        for name in REGIONS
        if name != "conj_pair"
    )
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

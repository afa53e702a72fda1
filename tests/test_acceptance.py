"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line with the measured numbers (visible with pytest -s).  Tolerances are
pinned here on purpose; loosening them is a change of contract, not a
test fix.
"""

import subprocess
import sys
import time

import numpy as np

from openrmt import (
    EnsembleParams,
    KappaDistribution,
    RandomStream,
    assemble_coupled,
    canonicalize_conjugates,
    classify,
    dense_vs_tridiagonal_test,
    density_mc_compare_n1,
    density_normalization_n1,
    eigenvalues_outside_band,
    gc_forward,
    identity_suite,
    jacobian_suite,
    joukowsky,
    membership_suite,
    polynomial_roots,
    roundtrip_suite,
    sample_de_tridiagonal,
    sample_kappa,
    semicircle_moment_test,
    sum_zeros_test,
)

SEED = 20240229
CHI = KappaDistribution("chi", (3.0, 0.5))
WORKERS = 4


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def test_criterion_1_roundtrip_precision_and_speed():
    """1000 random coefficient sets up to n=8: relative error < 1e-8, < 10 s."""
    report = roundtrip_suite(1000, SEED, max_n=8)
    err = report.statistics["max_rel_error"]
    elapsed = report.statistics["elapsed_seconds"]
    ok = err < 1e-8 and elapsed < 10.0
    _line(1, "roundtrip", ok, f"max rel error {err:.3g} in {elapsed:.2f}s over 1000 sets")
    assert err < 1e-8
    assert elapsed < 10.0


def test_criterion_2_zeros_match_truncated_spectra():
    """Eigenvalue images z + 1/z match truncated-operator spectra to 1e-6.

    100 coupled samples with n up to 6 against 2000 x 2000 finite
    sections, both directions: every point-spectrum eigenvalue outside
    [-2.01, 2.01] appears on both routes.
    """
    worst = 0.0
    matched = 0
    count_mismatch = 0
    for trial in range(100):
        stream = RandomStream(SEED).substream(trial)
        n = 1 + trial % 6
        params = EnsembleParams(2.0, n, 1.0, CHI)
        sample = sample_de_tridiagonal(params, stream)
        kappa = sample_kappa(CHI, stream)
        coeffs = assemble_coupled(sample, 1.0, kappa)
        config = classify(canonicalize_conjugates(polynomial_roots(gc_forward(coeffs).final)))
        images = sorted(
            joukowsky(z).real
            for z in config.points
            if z.imag == 0 and abs(z) > 1.001 and abs(joukowsky(z).real) > 2.01
        )
        section = [e for e in eigenvalues_outside_band(coeffs, size=2000, margin=0.01)]
        if len(images) != len(section):
            count_mismatch += 1
            continue
        matched += len(images)
        if images:
            worst = max(worst, float(np.max(np.abs(np.array(images) - np.array(section)))))
    ok = count_mismatch == 0 and worst < 1e-6
    _line(
        2,
        "spectral match",
        ok,
        f"{matched} eigenvalues matched across 100 samples, max |diff| {worst:.3g}, "
        f"{count_mismatch} count mismatches",
    )
    assert count_mismatch == 0
    assert worst < 1e-6


def test_criterion_3_coefficient_identities():
    """Identities (i)-(iv) to 1e-9 and the pair product to 1e-7, 1000 draws."""
    report = identity_suite(1000, SEED, max_n=8)
    stats = report.statistics
    _line(
        3,
        "identities",
        report.passed,
        "max residuals "
        + ", ".join(
            f"{key.removeprefix('max_')} {stats[key]:.3g}"
            for key in (
                "max_identity_i",
                "max_identity_ii",
                "max_identity_iii",
                "max_identity_iv",
                "max_identity_v",
            )
        )
        + f"; pair product scored on {stats['identity_v_scored']} levels"
        f" ({stats['identity_v_rejected']} near-degenerate skipped)",
    )
    assert stats["max_identity_i"] < 1e-9
    assert stats["max_identity_ii"] < 1e-9
    assert stats["max_identity_iii"] < 1e-9
    assert stats["max_identity_iv"] < 1e-9
    assert stats["max_identity_v"] < 1e-7
    assert stats["max_identity_v_imag"] < 1e-9
    assert stats["identity_v_scored"] > 0


def test_criterion_4_jacobian_determinants():
    """Step determinants -1 and -2a^(2k+1), total 2^n prod a^(2j-1), to 1e-4."""
    report = jacobian_suite(100, SEED, max_n=5)
    stats = report.statistics
    _line(
        4,
        "jacobians",
        report.passed,
        f"max residuals odd {stats['max_jacobian_odd_step']:.3g}, "
        f"even {stats['max_jacobian_even_step']:.3g}, total {stats['max_jacobian_total']:.3g} "
        "over 100 draws",
    )
    assert stats["max_jacobian_odd_step"] < 1e-4
    assert stats["max_jacobian_even_step"] < 1e-4
    assert stats["max_jacobian_total"] < 1e-4


def test_criterion_5_membership_and_coupling_identity():
    """10^4 pipeline samples across beta in {1, 2, 4}: all zeros admissible."""
    report = membership_suite(
        10_000, SEED, betas=(1.0, 2.0, 4.0), max_n=5, kappa_dist=CHI, workers=WORKERS
    )
    stats = report.statistics
    ok = stats["in_S_count"] == 10_000 and stats["max_kappa_residual"] < 1e-9
    _line(
        5,
        "membership",
        ok,
        f"{stats['in_S_count']}/10000 in S, max |kappa - sqrt(1 - prod z)| "
        f"{stats['max_kappa_residual']:.3g}",
    )
    assert stats["in_S_count"] == 10_000
    assert stats["max_kappa_residual"] < 1e-9


def test_criterion_6_density_normalization_and_mc():
    """n=1 law: quadrature total 1 +- 0.01 and binned MC within 10 percent.

    10^6 trials per beta; only bins with expected count >= 100 are scored;
    the whole comparison must finish within five minutes.
    """
    t0 = time.perf_counter()
    details = []
    ok = True
    for beta in (1.0, 2.0):
        norm = density_normalization_n1(beta, 1.0, CHI)
        total = norm.statistics["total"]
        mc = density_mc_compare_n1(beta, 1.0, CHI, 1_000_000, SEED, workers=WORKERS)
        dev = mc.statistics["max_rel_bin_deviation"]
        scored = mc.statistics["bins_scored"]
        ok = ok and norm.passed and mc.passed
        details.append(f"beta={beta:g}: total {total:.4f}, max bin dev {dev:.3f} ({scored} bins)")
        assert abs(total - 1.0) < 0.01
        assert norm.statistics["tail_estimate"] < 1e-4
        assert dev < 0.10
        assert scored > 0
        assert mc.statistics["split_deviation"] < mc.statistics["split_3sigma"] + 2e-4
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _line(6, "density", ok, "; ".join(details) + f"; {elapsed:.0f}s total")
    assert elapsed < 300.0


def test_criterion_7_distributional_checks():
    """Zero-sum law, semicircle moments, and dense-vs-tridiagonal agreement."""
    params = EnsembleParams(2.0, 3, 1.0, CHI)
    sums = sum_zeros_test(params, 10_000, SEED, workers=WORKERS)
    moments = semicircle_moment_test(2.0, 200, 200, SEED)
    m2 = moments.statistics["second_moment"]
    m4 = moments.statistics["fourth_moment"]
    agree = {
        beta: dense_vs_tridiagonal_test(beta, 4, 10_000, SEED) for beta in (1, 2)
    }
    ok = sums.passed and moments.passed and all(r.passed for r in agree.values())
    _line(
        7,
        "distributions",
        ok,
        f"zero-sum KS p {sums.statistics['p_value']:.3g}; "
        f"moments m2 {m2:.4f}, m4 {m4:.4f}; "
        f"route agreement min p {agree[1].statistics['min_p_value']:.3g} (beta 1), "
        f"{agree[2].statistics['min_p_value']:.3g} (beta 2)",
    )
    assert sums.passed, sums.notes
    assert abs(m2 - 1.0) < 0.02
    assert abs(m4 - 2.0) < 0.05
    for beta, rep in agree.items():
        assert rep.passed, (beta, rep.notes)
    # pinned bit for bit: the KS p-values depend only on the ranks of the coordinates
    assert moments.statistics == {
        "second_moment": 1.0010311125964835,
        "fourth_moment": 2.0046856630111565,
    }
    pins = {1: 0.23009750585879926, 2: 0.012657224426456587}
    for beta, min_p in pins.items():
        assert agree[beta].statistics == {"min_p_value": min_p, "coordinates": 7}
        assert agree[beta].notes == (f"attempt 1: min coordinate p-value {min_p:.6g}",)


def test_criterion_8_byte_for_byte_determinism():
    """Identical record streams for 1 and 8 workers, and across reruns."""

    def run(workers: int) -> bytes:
        proc = subprocess.run(
            [
                sys.executable, "-m", "openrmt.cli", "sample",
                "--n", "2", "--trials", "2048", "--seed", str(SEED),
                "--workers", str(workers),
            ],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    serial = run(1)
    parallel = run(8)
    rerun = run(8)
    ok = serial == parallel == rerun
    _line(
        8,
        "determinism",
        ok,
        f"2048 records, {len(serial)} bytes, workers 1 vs 8 "
        f"{'identical' if serial == parallel else 'DIFFER'}, "
        f"rerun {'identical' if parallel == rerun else 'DIFFERS'}",
    )
    assert serial == parallel
    assert parallel == rerun

"""Property tests of the array-first zero and verdict path.

Stacked verdicts must equal one-row verdicts, the 2n x 2n linearization
must agree with the monomial (companion) route wherever the latter is
well conditioned, and admissibility must not see the sign of the axis.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openrmt import (
    ConjugationError,
    JacobiCoefficients,
    gc_forward,
    is_in_S,
    polynomial_roots,
    resolve,
)
from openrmt.spectra import linearization_zeros, resolve_rows

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
COORDINATE = st.floats(-4.0, 4.0)


@st.composite
def root_rows(draw, size):
    """size roots of a real polynomial: conjugate pairs, the rest real."""
    pairs = draw(st.integers(0, size // 2))
    roots = []
    for _ in range(pairs):
        z = complex(draw(COORDINATE), draw(st.floats(1e-3, 3.0)))
        roots += [z, z.conjugate()]
    roots += [complex(draw(COORDINATE), 0.0) for _ in range(size - 2 * pairs)]
    return draw(st.permutations(roots))


@st.composite
def root_stacks(draw):
    size = draw(st.integers(1, 8))
    return size, draw(st.lists(root_rows(size), min_size=1, max_size=6))


@st.composite
def coefficients(draw):
    n = draw(st.integers(1, 8))
    a = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    b = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    return JacobiCoefficients(tuple(a), tuple(b))


def _root_condition(coeffs, z) -> float:
    """Relative condition number of the simple root z of sum_j c_j z^j."""
    c = np.array(coeffs, dtype=float)
    j = np.arange(len(c))
    slope = np.polynomial.polynomial.polyval(z, c[1:] * j[1:])
    with np.errstate(divide="ignore"):
        return float(np.sum(np.abs(c) * np.abs(z) ** j) / (max(abs(z), 1.0) * abs(slope)))


def _distance(zs, ws) -> float:
    """Largest relative distance from a point of either set to the other set."""
    one = max(np.min(np.abs(ws - z)) / max(1.0, abs(z)) for z in zs)
    other = max(np.min(np.abs(zs - w)) / max(1.0, abs(w)) for w in ws)
    return max(one, other)


def _linearization(coeffs: JacobiCoefficients) -> np.ndarray:
    zeros, failures = linearization_zeros(np.array([coeffs.a]), np.array([coeffs.b]))
    assert not failures
    return zeros[0]


@PROPERTY
@given(root_stacks())
def test_batch_verdicts_equal_per_row_verdicts(case):
    size, rows = case
    batch = resolve_rows(np.array(rows, dtype=complex), size)
    for i, roots in enumerate(rows):
        try:
            config, verdict = resolve(np.array(roots, dtype=complex), size)
        except ConjugationError as exc:
            assert str(batch.failures[i]) == str(exc)
            continue
        assert i not in batch.failures
        assert batch.configuration(i) == config
        assert batch.membership(i) == verdict
        if verdict.clause != "count":
            assert is_in_S(size, config) == verdict


@PROPERTY
@given(coefficients())
def test_linearization_matches_the_monomial_route(coeffs):
    """Both routes agree to 1e-9 relative where the companion roots are well conditioned.

    The companion route's forward error is its backward error times the
    root condition number, so clustered roots (condition above 1e6) are
    left to the extended-precision check below.
    """
    final = gc_forward(coeffs).final
    reference = polynomial_roots(final)
    assume(max(_root_condition(final.coeffs, z) for z in reference) < 1e6)
    assert _distance(_linearization(coeffs), reference) < 1e-9


def test_linearization_stays_accurate_on_clustered_roots():
    """Sixteen zeros packed near the unit circle: the companion route loses digits, the linearization does not."""
    coeffs = JacobiCoefficients((0.125, 0.125, 0.25, 0.125, 0.125, 0.25, 0.25, 0.5), (0.0,) * 8)
    final = gc_forward(coeffs, precision=60).final
    with mpmath.workdps(60):
        exact = mpmath.polyroots(
            [mpmath.mpf(str(c)) for c in reversed(final.coeffs)], maxsteps=500, extraprec=400
        )
    exact = np.array([complex(z) for z in exact])
    assert _distance(_linearization(coeffs), exact) < 1e-13
    assert _distance(polynomial_roots(final.to_floats()), exact) > 1e-10


@PROPERTY
@given(root_stacks())
def test_verdicts_are_invariant_under_mirroring(case):
    size, rows = case
    roots = np.array(rows, dtype=complex)
    batch, mirrored = resolve_rows(roots, size), resolve_rows(-roots, size)
    assert batch.failures.keys() == mirrored.failures.keys()
    swap = {"iii": "iv", "iv": "iii"}
    for i in range(len(rows)):
        if i in batch.failures:
            continue
        assert batch.membership(i).ok == mirrored.membership(i).ok
        clause, flipped = batch.clause[i], mirrored.clause[i]
        if clause is None or clause.split(".")[0] not in swap:
            assert flipped == clause
        else:
            assert flipped.split(".")[0] in swap


@pytest.mark.parametrize(
    "points, clause",
    [
        ((0.5, 2.0), "iii.c"),  # 0.5 sits on 1/x_1
        ((-0.5, -2.0), "iv.c"),
        ((0.8, 1.4), "iii.a"),  # one point on (1/x_1, 1]
        ((-1.4, -0.8), "iv.a"),
        ((0.6, 0.7, 2.0, 3.0), "iii.b"),  # nothing between 1/x_2 and 1/x_1
        ((-3.0, -2.0, -0.7, -0.6), "iv.b"),
    ],
)
def test_hand_built_configurations_hit_each_parity_clause(points, clause):
    roots = np.array(points, dtype=complex)
    config, verdict = resolve(roots, len(points))
    assert not verdict and verdict.clause == clause
    assert is_in_S(len(points), config).clause == clause
    assert resolve_rows(np.stack([roots, roots[::-1]]), len(points)).clause == [clause, clause]

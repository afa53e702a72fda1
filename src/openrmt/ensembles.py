"""Random inputs for the coupled-operator model.

Two routes produce the same finite random block: a direct tridiagonal
sampler (normal diagonal, chi off-diagonals with decreasing degrees of
freedom) and a dense Gaussian sampler followed by Householder
reduction.  Both are scaled so the spectral bulk converges to the
semicircle on [-2, 2].

All sampling goes through ``RandomStream``, a counter-style wrapper
around numpy's generators keyed by ``(seed, stream_id)``.  Identical
keys give identical draw sequences, which is what makes trial-level
parallelism reproducible: worker count never changes the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_HERMITIAN_RTOL = 1e-12


class UnsupportedVariantError(ValueError):
    """Requested a model variant that is deliberately out of scope."""


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass
class RandomStream:
    """Deterministic substream of the global experiment randomness.

    The generator is derived from ``(seed, stream_id)`` only.  Substreams
    for parallel trials are obtained with :meth:`substream`; the child id
    is an injective mix of the parent id and the index for all indices
    below 2**32, so distinct trials never collide.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError(f"stream_id must fit in 64 bits, got {self.stream_id}")

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence((self.seed, self.stream_id))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def substream(self, index: int) -> "RandomStream":
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        child = _splitmix64(((self.stream_id << 32) & _MASK64) ^ index)
        return RandomStream(self.seed, child)


@dataclass(frozen=True)
class KappaDistribution:
    """Law of the coupling entry kappa.

    Kinds: ``point`` (a deterministic value, no density), ``uniform`` on
    (lo, hi) with 0 < lo < hi, and ``chi`` with ``dof`` degrees of freedom
    times ``scale``.  Densities are needed wherever the joint zero law is
    evaluated; ``point`` is only legal for sampling.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        p = self.params
        if not all(math.isfinite(x) for x in p):
            raise ValueError(f"kappa parameters must be finite, got {self.spec()}")
        if self.kind == "point":
            if len(p) != 1 or p[0] <= 0:
                raise ValueError("point kappa needs a single positive value")
        elif self.kind == "uniform":
            if len(p) != 2 or not 0 < p[0] < p[1]:
                raise ValueError("uniform kappa needs 0 < lo < hi")
        elif self.kind == "chi":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ValueError("chi kappa needs dof > 0 and scale > 0")
        else:
            raise ValueError(f"unknown kappa distribution kind {self.kind!r}")

    @classmethod
    def from_spec(cls, text: str) -> "KappaDistribution":
        """Parse ``point:v``, ``uniform:lo:hi`` or ``chi:dof:scale``."""
        parts = text.split(":")
        try:
            params = tuple(float(x) for x in parts[1:])
        except ValueError as exc:
            raise ValueError(f"malformed kappa spec {text!r}") from exc
        return cls(parts[0], params)

    def spec(self) -> str:
        return ":".join([self.kind] + [repr(x) for x in self.params])

    @property
    def has_density(self) -> bool:
        return self.kind != "point"

    def log_pdf(self, x) -> np.ndarray:
        """Log density of kappa at each x, -inf off the support."""
        if self.kind == "point":
            raise UnsupportedVariantError("point kappa has no density")
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            lo, hi = self.params
            return np.where((x >= lo) & (x <= hi), -math.log(hi - lo), -np.inf)
        dof, scale = self.params
        y = x / scale
        log_norm = (0.5 * dof - 1.0) * math.log(2.0) + math.lgamma(0.5 * dof) + math.log(scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(y > 0, (dof - 1.0) * np.log(y) - 0.5 * y * y - log_norm, -np.inf)


def check_model_params(beta: float, n: int, gamma: float) -> None:
    """The checks every model parameter set shares: beta > 0, n >= 1, gamma != 0, all finite."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (math.isfinite(gamma) and gamma != 0):
        raise ValueError(f"gamma must be nonzero and finite, got {gamma}")


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters of the coupled random operator."""

    beta: float
    n: int
    gamma: float = 1.0
    kappa: KappaDistribution = KappaDistribution("point", (1.0,))

    def __post_init__(self) -> None:
        check_model_params(self.beta, self.n, self.gamma)


@dataclass(frozen=True)
class TridiagonalSample:
    """Finite real symmetric tridiagonal block: diagonal s, off-diagonal t >= 0."""

    s: tuple[float, ...]
    t: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.t) != len(self.s) - 1:
            raise ValueError("need len(t) == len(s) - 1")
        if any(x < 0 for x in self.t):
            raise ValueError("off-diagonal entries must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.s)


def normal_sample(stream: RandomStream, mean: float, variance: float, size: int | None = None):
    """Normal draw(s) with the given mean and variance (variance > 0)."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return stream.generator.normal(mean, math.sqrt(variance), size)


def chi_sample(stream: RandomStream, dof: float, scale: float = 1.0, size: int | None = None):
    """Scaled chi draw(s) with ``dof`` degrees of freedom (dof > 0, not necessarily integer).

    Uses the exact gamma-variate route chi = sqrt(2 * Gamma(dof/2)), valid
    for any positive real dof.
    """
    if dof <= 0:
        raise ValueError("chi degrees of freedom must be positive")
    if scale <= 0:
        raise ValueError("chi scale must be positive")
    g = stream.generator.standard_gamma(0.5 * dof, size)
    return scale * np.sqrt(2.0 * g)


def sample_kappa(dist: KappaDistribution, stream: RandomStream, size: int | None = None):
    """One kappa draw (a float), or an array of ``size`` draws from the stream."""
    if dist.kind == "point":
        return dist.params[0] if size is None else np.full(size, dist.params[0])
    if dist.kind == "uniform":
        lo, hi = dist.params
        draws = stream.generator.uniform(lo, hi, size)
    else:
        dof, scale = dist.params
        draws = chi_sample(stream, dof, scale, size)
    return float(draws) if size is None else draws


def sample_de_tridiagonal(params: EnsembleParams, stream: RandomStream) -> TridiagonalSample:
    """Tridiagonal beta-ensemble block at the model scaling.

    Diagonal entries are iid N(0, 2/(beta*n)); off-diagonal entry j
    (1-based, from the top) is chi with beta*(n-j) degrees of freedom
    divided by sqrt(beta*n).  Draw order is s then t, one vector each.
    """
    s, t = _draw_block(params, stream)
    return TridiagonalSample(tuple(float(x) for x in s), tuple(float(x) for x in t))


def _draw_block(params: EnsembleParams, stream: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    beta, n = params.beta, params.n
    s = normal_sample(stream, 0.0, 2.0 / (beta * n), n)
    if n > 1:
        dofs = beta * (n - np.arange(1, n))
        g = stream.generator.standard_gamma(0.5 * dofs)
        t = np.sqrt(2.0 * g) / math.sqrt(beta * n)
    else:
        t = np.empty(0)
    return s, t


def sample_coupled_trials(params: EnsembleParams, streams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked draws of one coupled trial per stream: s (T, n), t (T, n - 1), kappa (T,).

    Each stream draws its block as :func:`sample_de_tridiagonal` does and
    then its coupling with :func:`sample_kappa`, so row i depends on
    streams[i] alone and not on how trials are grouped.
    """
    s = np.empty((len(streams), params.n))
    t = np.empty((len(streams), params.n - 1))
    kappa = np.empty(len(streams))
    for i, stream in enumerate(streams):
        s[i], t[i] = _draw_block(params, stream)
        kappa[i] = sample_kappa(params.kappa, stream)
    return s, t, kappa


def sample_dense_gaussian(beta: float, n: int, stream: RandomStream) -> np.ndarray:
    """Dense Gaussian invariant matrix (orthogonal beta=1, unitary beta=2).

    X = (Y + Y*)/2 * sqrt(2/(beta*n)) with iid standard normal entries in
    Y (independent real and imaginary parts for beta=2).  Bulk spectrum
    converges to the semicircle on [-2, 2].  beta=4 is out of scope here;
    use the tridiagonal sampler for general beta.
    """
    if beta == 1:
        y = stream.generator.normal(0.0, 1.0, (n, n))
    elif beta == 2:
        y = stream.generator.normal(0.0, 1.0, (n, n)) + 1j * stream.generator.normal(
            0.0, 1.0, (n, n)
        )
    else:
        raise UnsupportedVariantError(
            f"dense Gaussian sampling supports beta in {{1, 2}}, got {beta}"
        )
    return (y + y.conj().T) * (0.5 * math.sqrt(2.0 / (beta * n)))


def householder_tridiagonalize(mat: np.ndarray) -> TridiagonalSample:
    """Reduce a Hermitian matrix to real tridiagonal form.

    The similarity transform fixes the first basis vector, so the coupling
    geometry of the lead attachment is preserved.  Signs and phases of the
    off-diagonal entries are absorbed into the transform, making them
    nonnegative.
    """
    a = np.array(mat, dtype=complex if np.iscomplexobj(mat) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    n = a.shape[0]
    scale = np.linalg.norm(a) or 1.0
    if np.linalg.norm(a - a.conj().T) > _HERMITIAN_RTOL * scale * n:
        raise ValueError("input matrix is not Hermitian")

    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        xnorm = np.linalg.norm(x)
        if xnorm == 0.0:
            continue
        # alpha carries the phase of x[0] so v = x - alpha*e1 avoids cancellation
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        alpha = -phase * xnorm
        v = x
        v[0] -= alpha
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            continue
        v /= vnorm
        # two-sided P A P with P = I - 2 v v^H:
        #   A' = A - 2 v w^H - 2 w v^H + 4 (v^H w) v v^H,  w = A v
        sub = a[k + 1 :, k + 1 :]
        w = sub @ v
        c = v.conj() @ w
        sub -= 2.0 * np.outer(v, w.conj()) + 2.0 * np.outer(w, v.conj())
        sub += 4.0 * c * np.outer(v, v.conj())
        a[k + 1 :, k] = 0.0
        a[k + 1, k] = alpha
        a[k, k + 1 :] = 0.0
        a[k, k + 1] = np.conj(alpha)

    diag = np.real(np.diag(a)).copy()
    off = np.diag(a, -1).copy()
    # rotate residual phases/signs away; diagonal stays real
    t = np.abs(off)
    return TridiagonalSample(tuple(float(x) for x in diag), tuple(float(x) for x in t))

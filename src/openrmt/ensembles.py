"""Random inputs for the coupled-operator model.

Two routes produce the same finite random block: a direct tridiagonal
sampler (normal diagonal, chi off-diagonals with decreasing degrees of
freedom) and a dense Gaussian sampler followed by Householder
reduction.  Both are scaled so the spectral bulk converges to the
semicircle on [-2, 2].

All sampling goes through ``RandomStream``, a counter-style wrapper
around numpy's generators keyed by ``(seed, stream_id)``.  Identical
keys give identical draw sequences, which is what makes trial-level
parallelism reproducible: worker count never changes the output.  The
generators of a range of trials are seeded in one array pass that
reproduces numpy's ``SeedSequence`` word for word.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_HERMITIAN_RTOL = 1e-12


class UnsupportedVariantError(ValueError):
    """Requested a model variant that is deliberately out of scope."""


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One round of the splitmix64 mixer (public-domain constants) on uint64 words."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, filled by one hash and mixed, read out by another hash.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of each of ``count`` successive calls of one hash."""
    pairs, const = [], init
    for _ in range(count):
        nxt = (const * mult) & 0xFFFFFFFF
        pairs.append((np.uint32(const), np.uint32(nxt)))
        const = nxt
    return pairs


# the entropy hash runs once per pool word and once per mixing pair; the
# output hash once per uint32 half of PCG64's 4 uint64 seed words
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts: tuple[np.uint32, np.uint32]) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _uint32_words(x: int) -> list[int]:
    """numpy's entropy words of a nonnegative int: little-endian 32-bit, [0] for 0."""
    words = [x & 0xFFFFFFFF]
    while x >> 32:
        x >>= 32
        words.append(x & 0xFFFFFFFF)
    return words


def _seed_words(seed: int, ids: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for every i in ids, as rows.

    The entropy is the words of seed, then those of the id, zero-padded
    to the pool size; seed and id fit in 64 bits each, so it never
    overflows the pool.  A zero word and a missing one hash alike, so
    every id contributes both of its 32-bit halves.
    """
    head = _uint32_words(seed)
    entropy = np.zeros((_POOL_SIZE, len(ids)), dtype=np.uint32)
    entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head)] = ids.astype(np.uint32)  # the low half: astype wraps
    entropy[len(head) + 1] = (ids >> np.uint64(32)).astype(np.uint32)
    hash_a = iter(_HASH_A)
    pool = [_hashmix(word, next(hash_a)) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hash_a)))
    state = np.empty((len(ids), len(_HASH_B)), dtype=np.uint32)
    for i, consts in enumerate(_HASH_B):
        state[:, i] = _hashmix(pool[i % _POOL_SIZE], consts)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """A seed sequence class that hands PCG64 4 precomputed uint64 words (see :func:`_seed_words`).

    Built on first use, so that importing this module does not load
    numpy.random, which CLI start-up does not need.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype != np.uint64:
                raise ValueError("precomputed seed words serve only a 4-word uint64 request")
            return self.words

    return SeedWords


@dataclass
class RandomStream:
    """Deterministic substream of the global experiment randomness.

    The generator is derived from ``(seed, stream_id)`` only.  Substreams
    for parallel trials are obtained with :meth:`substream`, or a range
    of them with :meth:`substreams`; the child id is an injective mix of
    the parent id and the index for all indices below 2**32, so distinct
    trials never collide.
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

    def _child_ids(self, start: int, stop: int) -> np.ndarray:
        if start < 0:
            raise ValueError("substream index must be nonnegative")
        index = np.arange(start, stop, dtype=np.uint64)
        return _splitmix64(np.uint64((self.stream_id << 32) & _MASK64) ^ index)

    def substream(self, index: int) -> "RandomStream":
        return RandomStream(self.seed, int(self._child_ids(index, index + 1)[0]))

    def substreams(self, start: int, stop: int) -> list["RandomStream"]:
        """``[self.substream(i) for i in range(start, stop)]``, with the generators built.

        The seed words of all children come from one array pass (see
        :func:`_seed_words`); :attr:`generator` keeps numpy's own
        ``SeedSequence`` route and is the oracle for the batch.
        """
        ids = self._child_ids(start, stop)
        seed_words = _seed_words_type()
        return [
            RandomStream(self.seed, child, np.random.Generator(np.random.PCG64(seed_words(words))))
            for child, words in zip(ids.tolist(), _seed_words(self.seed, ids))
        ]


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


def _kappa_raw(dist: KappaDistribution, gen: np.random.Generator, size: int | None = None):
    """Kappa's raw variate(s) under a uniform or chi law: the uniform, or the gamma variate."""
    if dist.kind == "uniform":
        lo, hi = dist.params
        return gen.uniform(lo, hi, size)
    return gen.standard_gamma(0.5 * dist.params[0], size)


def _kappa_from_raw(dist: KappaDistribution, raw):
    """Kappa from :func:`_kappa_raw`'s variate(s); chi = scale * sqrt(2 * Gamma(dof/2))."""
    return raw if dist.kind == "uniform" else dist.params[1] * np.sqrt(2.0 * raw)


def sample_kappa(dist: KappaDistribution, stream: RandomStream, size: int | None = None):
    """One kappa draw (a float), or an array of ``size`` draws from the stream."""
    if dist.kind == "point":
        return dist.params[0] if size is None else np.full(size, dist.params[0])
    draws = _kappa_from_raw(dist, _kappa_raw(dist, stream.generator, size))
    return float(draws) if size is None else draws


def sample_de_tridiagonal(params: EnsembleParams, stream: RandomStream) -> TridiagonalSample:
    """Tridiagonal beta-ensemble block at the model scaling.

    Diagonal entries are iid N(0, 2/(beta*n)); off-diagonal entry j
    (1-based, from the top) is chi with beta*(n-j) degrees of freedom
    divided by sqrt(beta*n).  Draw order is s then t.
    """
    s, t, _ = _draw_trials(params, [stream.generator], None)
    return TridiagonalSample(tuple(s[0].tolist()), tuple(t[0].tolist()))


def _draw_trials(params: EnsembleParams, gens: list, kappa: KappaDistribution | None):
    """One block, and one kappa raw variate unless kappa is None or a point law, per generator.

    Each generator draws in stream order: n normals (the diagonal s),
    the n - 1 off-diagonal gamma variates one scalar-shape call each
    (which consumes the stream exactly as one array-shape call does,
    without its per-call argument checks), then kappa's raw variate.
    The chi transform of the gammas runs once on the stacked rows.
    Returns s (T, n), t (T, n - 1) and the raw kappa variates (T,).
    """
    beta, n = params.beta, params.n
    sd = math.sqrt(2.0 / (beta * n))
    shapes = (0.5 * (beta * (n - np.arange(1, n)))).tolist()
    draw_kappa = kappa is not None and kappa.kind != "point"
    s = np.empty((len(gens), n))
    g = np.empty((len(gens), n - 1))
    raw = np.empty(len(gens))
    for i, gen in enumerate(gens):
        s[i] = gen.normal(0.0, sd, n)
        draw_gamma = gen.standard_gamma
        g[i] = [draw_gamma(shape) for shape in shapes]
        if draw_kappa:
            raw[i] = _kappa_raw(kappa, gen)
    return s, np.sqrt(2.0 * g) / math.sqrt(beta * n), raw


def sample_coupled_trials(params: EnsembleParams, streams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked draws of one coupled trial per stream: s (T, n), t (T, n - 1), kappa (T,).

    Each stream draws its block as :func:`sample_de_tridiagonal` does and
    then its coupling as :func:`sample_kappa` does, so row i depends on
    streams[i] alone and not on how trials are grouped.
    """
    dist = params.kappa
    s, t, raw = _draw_trials(params, [stream.generator for stream in streams], dist)
    if dist.kind == "point":
        return s, t, np.full(len(streams), dist.params[0])
    return s, t, _kappa_from_raw(dist, raw)


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

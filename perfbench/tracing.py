"""Outside-in tracing of the openrmt layers, and the per-layer statistics.

A :class:`Tracer` replaces each listed public function with a wrapper at
every place the ``openrmt`` package binds it (the defining module, the
modules that imported it by name, and the package namespace), so calls
made through any of those names are seen.  Each call records one span
``(name, start, end, parent, error)`` in memory.  ``numpy.roots`` is
wrapped as a counter only: inside ``spectra.polynomial_roots`` it is the
companion fallback taken after the Aberth iteration fails, and giving it a
span would move fallback cost out of ``polynomial_roots`` self time.

Nothing here imports openrmt or numpy at module import, so the statistics
helpers can be tested without the package.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

PACKAGE = "openrmt"

# module -> public functions traced, named ``<module>.<function>``
TRACED = {
    "ensembles": ("sample_de_tridiagonal", "sample_kappa"),
    "jacobi": ("assemble_coupled",),
    "geronimo_case": ("gc_forward", "gc_inverse"),
    "spectra": ("polynomial_roots", "canonicalize_conjugates", "classify", "is_in_S"),
    "experiments": (
        "run_resonance_sampling",
        "random_coefficients",
        "roundtrip_suite",
        "density_mc_compare_n1",
    ),
    "density": ("normalization_constants",),
    "cli": ("cmd_sample",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# spans that also report a latency median and tail
TIMED = ("spectra.polynomial_roots", "geronimo_case.gc_forward", "geronimo_case.gc_inverse")
ROOTS_SPAN = "spectra.polynomial_roots"
ACCEPT_SPAN = "spectra.is_in_S"

TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Span recorder that patches the openrmt bindings while installed."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1, error)
        self.fallbacks = 0
        self.accepts = 0
        self.missing: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding of the traced functions, and ``numpy.roots``."""
        import numpy

        self.missing = []
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, fns in TRACED.items():
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                home = None
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._span_wrapper(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        self._patch(numpy, "roots", self._roots_counter(numpy.roots))

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, error)
            if name == ACCEPT_SPAN and result:
                self.accepts += 1
            return result

        return wrapper

    def _roots_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][1] == ROOTS_SPAN:
                self.fallbacks += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def percentile(ordered, pct: float) -> float:
    """Nearest-rank percentile of sorted samples (0 for no samples)."""
    if not ordered:
        return 0.0
    return ordered[_rank(pct, len(ordered)) - 1]


def _rank(pct: float, count: int) -> int:
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def tail(durations) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``(0.0, 0.0)`` when fewer than
    twenty samples leave no percentile with ten beyond it.
    """
    ordered = sorted(durations)
    best = (0.0, 0.0)
    for pct in TAIL_PERCENTILES:
        if len(ordered) - _rank(pct, len(ordered)) >= TAIL_MIN_BEYOND:
            best = (pct, percentile(ordered, pct))
    return best


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from the recorded spans."""
    selfs = self_times(tracer.spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    errors = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    durations: dict[str, list[float]] = {name: [] for name in TIMED}
    for (name, start, end, _, error), own in zip(tracer.spans, selfs):
        calls[name] += 1
        errors[name] += int(error)
        self_s[name] += own
        if name in durations:
            durations[name].append(end - start)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.errors"] = (errors[name], "count")
    for name in TIMED:
        pct, value = tail(durations[name])
        out[f"{name}.p50_ms"] = (1e3 * percentile(sorted(durations[name]), 50.0), "ms")
        out[f"{name}.tail_ms"] = (1e3 * value, "ms")
        out[f"{name}.tail_pct"] = (pct, "%")
    roots = calls[ROOTS_SPAN]
    out[f"{ROOTS_SPAN}.fallback_calls"] = (tracer.fallbacks, "count")
    out[f"{ROOTS_SPAN}.fallback_ratio"] = (tracer.fallbacks / roots if roots else 0.0, "ratio")
    checked = calls[ACCEPT_SPAN]
    out[f"{ACCEPT_SPAN}.accepts"] = (tracer.accepts, "count")
    out[f"{ACCEPT_SPAN}.accept_ratio"] = (tracer.accepts / checked if checked else 0.0, "ratio")
    return out

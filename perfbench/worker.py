"""One benchmark process: set up, run one workload's CLI calls, check them.

``run.py`` starts this script in a fresh interpreter with the checkout's
``src`` on ``PYTHONPATH``; its one argument is a JSON object::

    {"workload": "sample_n3", "seed": 7, "mode": "timed" | "traced",
     "budget_s": 6.5, "start": 0, "out_dir": ".perfbench", "env": true}

Each call is ``openrmt.cli.main(argv)`` in this process, the user's path
including argument parsing and JSON output, written to a scratch file
that is read back, checked and hashed.  Calls run in a closed loop: one
caller starts the next call only after the previous one returns, until
``budget_s`` of wall time has passed (at least one call).

``timed`` mode runs calls ``start, start + 1, ...`` untraced, and times
the workload's reference computation before the first call and after
each call; a call's ``ref_seconds`` is the mean of the two readings
beside it.  ``traced`` mode runs each call twice, untraced and traced,
alternating which goes first, and reports the per-layer metrics of the
traced calls, the wall time of each side, and whether the two outputs are
identical.

The process prints one JSON line: the moment set-up finished (on the
monotonic clock, which ``run.py`` shares), the interpreter-bound
reference time measured right after it, peak RSS, and one entry per call.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

# Each workload: CLI arguments before the per-call seed/workers/out, the
# kind of output, the items one call attempts, and the reference
# computation whose speed tracks the call's (see ``reference_seconds``).
WORKLOADS = {
    "sample_n3": (
        ["sample", "--beta", "2", "--n", "3", "--kappa", "chi:3:0.5", "--trials", "512"],
        "sample",
        512,
        "python",
    ),
    "sample_n32": (
        ["sample", "--beta", "2", "--n", "32", "--kappa", "chi:3:0.5", "--trials", "8"],
        "sample",
        8,
        "numpy",
    ),
    "roundtrip_n8": (
        ["verify", "roundtrip", "--max-n", "8", "--trials", "200"],
        "suite",
        200,
        "python",
    ),
    "density_n1": (
        ["density", "mc-compare", "--beta", "1", "--kappa", "chi:3:0.5", "--trials", "1000000"],
        "suite",
        1_000_000,
        "numpy",
    ),
}

KAPPA_RESIDUAL_TOL = 1e-9
# Report fields that hold wall-clock readings, left out of the digest.
CLOCK_FIELDS = ("elapsed_seconds",)


def call_seed(seed: int, index: int) -> int:
    """The CLI seed of call ``index`` of a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def call_argv(workload: str, seed: int, index: int, out_path) -> list[str]:
    head = WORKLOADS[workload][0]
    return head + ["--seed", str(call_seed(seed, index)), "--workers", "1", "--out", str(out_path)]


def record_failure(rec: dict) -> str | None:
    """Why one ``sample`` record failed, or None when it passed.

    A record fails if it carries ``error``, is not in S (any clause,
    including ``count``), or its coupling residual is missing or above
    1e-9.
    """
    if "error" in rec:
        return "error"
    if rec.get("in_S") is not True:
        return f"in_S:{rec.get('clause')}"
    residual = rec.get("kappa_check_residual")
    if not isinstance(residual, (int, float)) or not residual <= KAPPA_RESIDUAL_TOL:
        return "kappa_residual"
    return None


def score(kind: str, items: int, rc, data: bytes):
    """Check one call's exit status and output.

    Returns ``(failed, reasons, gates, digest)``: failed items, a count of
    failed items by reason, the gates that failed, and the hash of the
    output.  A gate is a malformed result (output missing or not JSON, or
    the wrong number of records or trials) and makes the run incorrect.
    A failed gate, a failed suite verdict or a nonzero exit status fails
    every item of the call; otherwise each ``sample`` record is judged by
    :func:`record_failure`.
    """
    gates: list[str] = []
    reasons: collections.Counter = collections.Counter()
    failed_verdicts: list[str] = []
    if kind == "sample":
        lines = data.splitlines()
        if len(lines) != items:
            gates.append(f"{len(lines)} records for {items} trials")
        invalid = 0
        for line in lines:
            try:
                rec = json.loads(line)
            except ValueError:
                invalid += 1
                continue
            reason = record_failure(rec) if isinstance(rec, dict) else "not an object"
            if reason is not None:
                reasons[reason] += 1
        if invalid:
            gates.append(f"{invalid} records are not valid JSON")
        digest = hashlib.sha256(data).hexdigest()
    else:
        try:
            doc = json.loads(data)
        except ValueError:
            doc = None
        if not isinstance(doc, dict):
            gates.append("output is not one JSON object")
            digest = hashlib.sha256(data).hexdigest()
        else:
            if doc.get("trials") != items:
                gates.append(f"report has {doc.get('trials')} trials, expected {items}")
            verdicts = doc.get("verdicts", {})
            failed_verdicts = sorted(k for k, v in verdicts.items() if v is not True)
            if doc.get("passed") is not True and not failed_verdicts:
                failed_verdicts = ["passed"]
            stats = doc.get("statistics", {})
            for key in CLOCK_FIELDS:
                stats.pop(key, None)
            digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    if gates:
        reasons = collections.Counter({"gate": items})
    elif failed_verdicts:
        reasons = collections.Counter({"verdict:" + ",".join(failed_verdicts): items})
    elif rc != 0:
        reasons = collections.Counter({f"exit:{rc}": items})
    return sum(reasons.values()), dict(reasons), gates, digest


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def f(self, k: int) -> int:
        return (self.a * k + self.b) % 1009


def _reference_python() -> None:
    """Interpreter-bound reference: objects, method calls, float sums, string sorts."""
    points = [_Point(i, i + 1) for i in range(500)]
    total = 0.0
    for r in range(300):
        for p in points:
            total += p.f(r) * 0.5
        sorted(str(p.a + r) for p in points[:100])


def _reference_numpy() -> None:
    """Array-bound reference: generate, transform and sort 2*10^5 floats."""
    import numpy

    y = numpy.random.default_rng(0).random(200_000)
    for _ in range(20):
        y = numpy.sort(numpy.exp(-y) * 1.5)


REFERENCES = {"python": _reference_python, "numpy": _reference_numpy}


def reference_seconds(kind: str) -> float:
    """CPU seconds this process takes for one run of a fixed reference computation.

    The computation is benchmark code, never openrmt, so no change to the
    program moves it; only the speed of the machine at that moment does.
    On a shared host that speed drifts by 20% or more for minutes at a
    time, and a reference of the same kind as the call (interpreter-bound
    or array-bound) slows and speeds up with it.
    """
    start = time.process_time()
    REFERENCES[kind]()
    return time.process_time() - start


def run_call(cli, workload: str, seed: int, index: int, out_path: Path) -> dict:
    """One closed-loop call: run the CLI, then check and hash its output."""
    _, kind, items, _ = WORKLOADS[workload]
    argv = call_argv(workload, seed, index, out_path)
    out_path.unlink(missing_ok=True)
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed call, reported with its traceback
        traceback.print_exc()
        rc = "raised"
    seconds = time.perf_counter() - start
    cpu_seconds = time.process_time() - cpu_start
    data = out_path.read_bytes() if out_path.exists() else b""
    failed, reasons, gates, digest = score(kind, items, rc, data)
    return {
        "index": index,
        "seconds": seconds,
        "cpu_seconds": cpu_seconds,
        "items": items,
        "failed": failed,
        "reasons": reasons,
        "gates": gates,
        "digest": digest,
    }


def environment() -> dict:
    """Versions, CPU count and BLAS of this process."""
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads():
    """Thread count of the loaded OpenBLAS libraries, or None if none is found."""
    import ctypes

    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    counts = []
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def main(spec: dict) -> dict:
    root = Path(__file__).resolve().parents[1]
    import openrmt.cli as cli

    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"openrmt was imported from {cli.__file__}, not from {src}")
    workload, seed, budget = spec["workload"], spec["seed"], spec["budget_s"]
    out_dir = root / spec["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{workload}-{os.getpid()}.out"
    ready = time.monotonic()
    setup_ref = statistics.median(reference_seconds("python") for _ in range(3))

    calls = []
    layers, missing = None, []
    loop_start = time.monotonic()
    if spec["mode"] == "timed":
        reference = WORKLOADS[workload][3]
        index = spec["start"]
        before = reference_seconds(reference)
        while not calls or time.monotonic() - loop_start < budget:
            call = run_call(cli, workload, seed, index, out_path)
            after = reference_seconds(reference)
            call["ref_seconds"] = (before + after) / 2
            calls.append(call)
            before = after
            index += 1
    else:
        tracer = tracing.Tracer()
        index = 0
        while not calls or time.monotonic() - loop_start < budget:
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    call = run_call(cli, workload, seed, index, out_path)
                finally:
                    tracer.uninstall()
                call["traced"] = traced
                calls.append(call)
            index += 1
        layers, missing = tracing.layer_metrics(tracer), tracer.missing
        spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"missing": missing, "spans": tracer.spans}, fh)
    out_path.unlink(missing_ok=True)
    return {
        "ready": ready,
        "setup_ref_seconds": setup_ref,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "layers": layers,
        "missing": missing,
        "env": environment() if spec.get("env") else None,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
